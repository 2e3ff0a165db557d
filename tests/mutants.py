"""Mutation testing of `src/mvcil` against tier-1, with the standard library only.

Each mutant changes one site of one module, in one of five ways:

    operator    swaps an arithmetic or boolean operator (+ and -, * and /, and/or, ...)
    compare     flips a comparison's first operator (< and <=, == and !=, in and not in, ...)
    constant    adds 1 to an int constant, or multiplies a float constant by 1.5
    if          negates an `if` test
    raise       replaces a `raise` with `pass`

The repository is copied to a temporary directory once. Each mutant is
written into that copy (the module unparsed from its mutated tree), tier-1
runs there with `-x`, and the module is put back; the working tree is never
touched. A control run of the unparsed, unmutated modules must pass first.
A mutant is `killed` when tier-1 fails and `survived` when it passes.

    python tests/mutants.py --list                      # sites per module, no runs
    python tests/mutants.py --sample 80 --seed 7 --out mutants.json
    python tests/mutants.py --out mutants.json          # every site: about an hour

The JSON holds the sites per module and, for each mutant run, its module,
line, column, kind, source and verdict.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "mvcil")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
# seconds a tier-1 run may take before its mutant counts as killed: tier-1
# takes about 25 s, so only a mutant that loops reaches it
TIMEOUT = 600

SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
        ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.MatMult: ast.Mult,
        ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
        ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.And: ast.Or, ast.Or: ast.And}
FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is}


def kind_of(node: ast.AST) -> str | None:
    """The mutation kind that applies to `node`, if any."""
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
        return "operator"
    if isinstance(node, ast.Compare):
        return "compare"
    # 0.0 * 1.5 is 0.0, so a zero float is no mutant
    if isinstance(node, ast.Constant) and (type(node.value) is int
                                           or type(node.value) is float and node.value):
        return "constant"
    if isinstance(node, ast.If):
        return "if"
    if isinstance(node, ast.Raise):
        return "raise"
    return None


def sites(module: str) -> list[dict]:
    """Every mutable site of `module` (a path under the package), in
    `ast.walk` order; `index` is the node's position in that order."""
    with open(os.path.join(ROOT, module)) as f:
        source = f.read()
    tree = ast.parse(source)
    # annotations are never evaluated (the package imports annotations from
    # __future__), so `str | None` is no site
    annotations = {id(n) for node in ast.walk(tree) for field in ("annotation", "returns")
                   if isinstance(getattr(node, field, None), ast.AST)
                   for n in ast.walk(getattr(node, field))}
    out = []
    for index, node in enumerate(ast.walk(tree)):
        kind = kind_of(node)
        if kind and id(node) not in annotations:
            out.append({"module": module, "index": index, "kind": kind, "line": node.lineno,
                        "col": node.col_offset,
                        "source": ast.get_source_segment(source, node).splitlines()[0]})
    return out


def mutate(module: str, site: dict | None) -> str:
    """The source of `module` unparsed, with `site` mutated (none if None)."""
    with open(os.path.join(ROOT, module)) as f:
        tree = ast.parse(f.read())
    if site is not None:
        nodes = list(ast.walk(tree))
        node = nodes[site["index"]]
        if isinstance(node, ast.Compare):
            node.ops[0] = FLIP[type(node.ops[0])]()
        elif isinstance(node, ast.Constant):
            node.value = node.value + 1 if type(node.value) is int else node.value * 1.5
        elif isinstance(node, ast.If):
            node.test = ast.UnaryOp(ast.Not(), node.test)
        elif isinstance(node, ast.Raise):
            for parent in nodes:
                for _, body in ast.iter_fields(parent):
                    if isinstance(body, list):
                        body[:] = [ast.Pass() if item is node else item for item in body]
        else:
            node.op = SWAP[type(node.op)]()
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def run_tier1(copy: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"),
           "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}
    try:
        done = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sample", type=int, help="run this many sites, drawn under --seed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--list", action="store_true", help="count the sites; run nothing")
    parser.add_argument("--out", help="JSON file for the results (default: stdout)")
    args = parser.parse_args(argv)

    modules = sorted(os.path.join(PACKAGE, name) for name in os.listdir(os.path.join(ROOT, PACKAGE))
                     if name.endswith(".py"))
    found = [site for module in modules for site in sites(module)]
    report: dict = {"sites": {m: sum(s["module"] == m for s in found) for m in modules}}
    chosen = found if args.sample is None else random.Random(args.seed).sample(found, args.sample)
    if not args.list:
        with tempfile.TemporaryDirectory() as scratch:
            copy = os.path.join(scratch, "repo")
            shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"))
            for module in modules:  # the control: every module unparsed, none mutated
                with open(os.path.join(copy, module), "w") as f:
                    f.write(mutate(module, None))
            if run_tier1(copy) != "survived":
                print("the control run of the unmutated modules fails", file=sys.stderr)
                return 1
            report["mutants"] = []
            for n, site in enumerate(chosen, start=1):
                target = os.path.join(copy, site["module"])
                with open(target, "w") as f:
                    f.write(mutate(site["module"], site))
                verdict = run_tier1(copy)
                with open(target, "w") as f:
                    f.write(mutate(site["module"], None))
                report["mutants"].append({**site, "verdict": verdict})
                print(f"{n}/{len(chosen)} {verdict}: {site['module']}:{site['line']}:{site['col']} "
                      f"{site['kind']} {site['source']}", file=sys.stderr)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
