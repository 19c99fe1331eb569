"""Mutation audit of `src/gblink`: which one-line faults does the test suite miss?

Run from anywhere, outside pytest (the name does not match `test_*`):

    python tests/mutate.py                      # rs, sync, harness, channel, elastic
    python tests/mutate.py --modules rs --per-module 10 --seed 3
    python tests/mutate.py --list --modules sync   # every mutant of a module, no runs
    python tests/mutate.py --only rs:12,rs:40      # given mutants (ids as reported)

Each mutant changes one line of a module, by one operator on its code
(docstrings, comments and annotations are never touched):

  delete  a one-line statement becomes `pass`
  negate  a comparison becomes its complement (< and >=, > and <=, == and !=)
  bound   a comparison swaps strictness (< and <=, > and >=)
  logic   `&` and `|` (also `&=`, `|=`), `and` and `or` swap
  int     an integer literal gets +1 or -1
  index   a name or attribute used as a subscript or slice bound gets +1 or -1

A seeded sample of each module's mutants runs, two at a time, each
in its own temporary copy of `src`, `tests`, `bench` and `pyproject.toml`, so
the repository is only read.  A mutant that does not compile or import is
invalid.  A valid one runs its module's test files with `-x`, then, if they
pass, the rest of `tests/`; it survives if both pass.  Every command runs in
its own process group under a wall-clock timeout of a few times the
unmutated tree's run (at least 20 s) and a 3 GB address-space limit; a
timeout counts as killed, and the whole group is killed after every command,
so a looping mutant leaves nothing running.  Hypothesis runs at a fixed
seed.  The report lists, per module, the mutants run, killed, survived,
invalid and timed out, then every survivor.

The defaults (25 mutants a module, seed 0) take 5-8 minutes on a 2-core x86
host: a killed mutant costs 2-8 s, a survivor about 30 s more.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = "gblink"
MODULE_TESTS = {
    "rs": ["tests/test_rs.py"],
    "sync": ["tests/test_sync.py"],
    "harness": ["tests/test_harness.py"],
    "channel": ["tests/test_channel.py", "tests/test_dbpsk.py"],
    "elastic": ["tests/test_elastic.py"],
    "framing": ["tests/test_framing.py"],
    "modem": ["tests/test_modem.py"],
    "cli": ["tests/test_cli.py"],
}
DEFAULT_MODULES = ("rs", "sync", "harness", "channel", "elastic")
COPIED = ("src", "tests", "bench", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "results")
NOT_THIS_TOOL = "--ignore=tests/test_mutate.py"  # its test checks the tool, not src
ADDRESS_LIMIT = 3 << 30
MIN_TIMEOUT = 20.0
TIMEOUT_FACTOR = 4.0  # a command's timeout, as a multiple of its unmutated run
WORKERS = 2           # mutants run at once, one a core of a 2-core host

_NEGATE = {"<": ">=", ">=": "<", ">": "<=", "<=": ">", "==": "!=", "!=": "=="}
_BOUND = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
_LOGIC = {"&": "|", "|": "&", "&=": "|=", "|=": "&=", "and": "or", "or": "and"}
# sets an address-space limit, then becomes the command
_LIMITED = ("import os, resource, sys; resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2); "
            "os.execv(sys.argv[2], sys.argv[2:])")


@dataclass(frozen=True)
class Mutant:
    module: str
    index: int      # position in the module's full mutant list
    line: int       # 1-based
    op: str
    before: str     # the line, without its newline
    after: str

    @property
    def id(self) -> str:
        return f"{self.module}:{self.index}"

    def describe(self) -> str:
        return (f"{self.id} {self.module}.py:{self.line} [{self.op}]\n"
                f"    - {self.before.strip()}\n    + {self.after.strip()}")


def _untouchable(tree: ast.AST) -> set[int]:
    """Lines of docstrings: never mutated, not even deleted."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _annotation_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every annotation, which code never evaluates here."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            notes.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    return [((n.lineno, n.col_offset), (n.end_lineno, n.end_col_offset)) for n in notes]


def _replace(line: str, start: int, end: int, text: str) -> str:
    return line[:start] + text + line[end:]


def _chars(line: str, offset: int) -> int:
    """The character column of an `ast` UTF-8 byte offset."""
    return len(line.encode()[:offset].decode())


def mutants(path: Path, module: str) -> list[Mutant]:
    """Every mutant of one source file, in a fixed order (by line, then operator)."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    skip, notes = _untouchable(tree), _annotation_spans(tree)
    found: list[tuple[int, int, str, str]] = []   # (line, column, op, new line)

    def add(line: int, col: int, op: str, new: str) -> None:
        if line not in skip and not any(a <= (line, col) < b for a, b in notes):
            found.append((line, col, op, new))

    per_line: dict[int, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            per_line[node.lineno] = per_line.get(node.lineno, 0) + 1
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(
                node, (ast.Import, ast.ImportFrom, ast.Pass, ast.Global, ast.Nonlocal,
                       ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.If, ast.For,
                       ast.While, ast.With, ast.Try)) and node.lineno == node.end_lineno:
            text = lines[node.lineno - 1]
            indent = text[:_chars(text, node.col_offset)]
            if not indent.strip() and per_line[node.lineno] == 1:
                add(node.lineno, len(indent), "delete", indent + "pass")
        elif isinstance(node, ast.Subscript) and node.lineno == node.end_lineno:
            index = node.slice
            parts = index.elts if isinstance(index, ast.Tuple) else [index]
            bounds = []
            for part in parts:
                bounds += [part.lower, part.upper] if isinstance(part, ast.Slice) else [part]
            for b in bounds:
                if isinstance(b, (ast.Name, ast.Attribute)) and b.lineno == b.end_lineno:
                    text = lines[b.lineno - 1]
                    start, end = _chars(text, b.col_offset), _chars(text, b.end_col_offset)
                    for sign in "+-":
                        new = f"{text[start:end]} {sign} 1"
                        add(b.lineno, start, "index", _replace(text, start, end, new))

    with path.open("rb") as fp:
        tokens = list(tokenize.tokenize(fp.readline))
    for tok in tokens:
        (line, col), (end_line, end_col) = tok.start, tok.end
        if line != end_line or tok.type not in (tokenize.OP, tokenize.NAME, tokenize.NUMBER):
            continue
        text = lines[line - 1]
        if tok.type == tokenize.OP and tok.string in _NEGATE:
            add(line, col, "negate", _replace(text, col, end_col, _NEGATE[tok.string]))
            if tok.string in _BOUND:
                add(line, col, "bound", _replace(text, col, end_col, _BOUND[tok.string]))
        elif tok.string in _LOGIC and tok.type in (tokenize.OP, tokenize.NAME):
            add(line, col, "logic", _replace(text, col, end_col, _LOGIC[tok.string]))
        elif tok.type == tokenize.NUMBER:
            try:
                value = int(tok.string, 0)
            except ValueError:      # a float or imaginary literal
                continue
            form = hex if tok.string.lower().startswith("0x") else str
            for step in (1, -1):
                new = form(value + step)
                new = new if value + step >= 0 else f"({new})"
                add(line, col, "int", _replace(text, col, end_col, new))

    found.sort(key=lambda f: (f[0], f[1], f[2], f[3]))
    return [Mutant(module, i, line, op, lines[line - 1], new)
            for i, (line, _, op, new) in enumerate(found)]


def sample(all_mutants: list[Mutant], n: int, seed: int) -> list[Mutant]:
    """A seeded sample of n mutants of one module, in line order."""
    if not all_mutants:
        return []
    rng = random.Random(f"{seed}:{all_mutants[0].module}")
    return sorted(rng.sample(all_mutants, min(n, len(all_mutants))), key=lambda m: m.index)


def apply(source: str, mutant: Mutant) -> str:
    """The source with the mutant's line replaced, every other byte kept."""
    lines = source.splitlines(keepends=True)
    line = lines[mutant.line - 1]
    body = line.rstrip("\r\n")
    if body != mutant.before:
        raise ValueError(f"{mutant.id}: line {mutant.line} changed since the mutants were listed")
    lines[mutant.line - 1] = mutant.after + line[len(body):]
    return "".join(lines)


def _copy(root: Path) -> Path:
    """A temporary copy of the parts of a tree that the tests read."""
    tmp = Path(tempfile.mkdtemp(prefix="gblink-mutant-"))
    for name in COPIED:
        if (root / name).is_dir():
            shutil.copytree(root / name, tmp / name, ignore=IGNORED)
        elif (root / name).exists():
            shutil.copy2(root / name, tmp / name)
    return tmp


class Runner:
    """Runs commands, each in its own process group, in copies of a snapshot
    of a tree taken at the start, so edits made to the tree meanwhile do not
    reach the run; on exit, kills what is left and removes the snapshot."""

    def __init__(self, root: Path):
        self.tree = _copy(root)
        self._groups: set[int] = set()
        self._lock = threading.Lock()
        self._closed = False

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._closed = True
            groups = list(self._groups)
        for group in groups:
            self._kill(group)
        shutil.rmtree(self.tree, ignore_errors=True)

    def copy(self) -> Path:
        return _copy(self.tree)

    def run(self, cmd: list[str], cwd: Path, timeout: float) -> tuple[str, float]:
        """("pass" | "fail" | "timeout", seconds) of one command under the limits."""
        env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1",
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        full = [sys.executable, "-c", _LIMITED, str(ADDRESS_LIMIT), sys.executable, *cmd]
        start = time.perf_counter()
        with self._lock:
            if self._closed:        # the run is being torn down: start nothing more
                return "fail", 0.0
            proc = subprocess.Popen(full, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                    start_new_session=True)
            self._groups.add(proc.pid)
        try:
            status = "pass" if proc.wait(timeout) == 0 else "fail"
        except subprocess.TimeoutExpired:
            status = "timeout"
        finally:
            self._kill(proc.pid)
            proc.wait()
        return status, time.perf_counter() - start

    def _kill(self, group: int) -> None:
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        with self._lock:
            self._groups.discard(group)


def _pytest(files: list[str], first: bool) -> list[str]:
    """The module's test files (`first`), or the rest of tests/."""
    cmd = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    return cmd + files if first else cmd + ["tests", NOT_THIS_TOOL] + [f"--ignore={f}" for f in files]


def run_mutant(runner: Runner, mutant: Mutant, timeouts: dict[str, float] | None) -> str:
    """Status of one mutant: invalid, killed, timeout or survived ("imports"
    without `timeouts`, a dry run that stops after the import check)."""
    tmp = runner.copy()
    try:
        path = tmp / "src" / PACKAGE / f"{mutant.module}.py"
        text = apply(path.read_text(), mutant)
        try:
            compile(text, str(path), "exec")
        except SyntaxError:
            return "invalid"
        path.write_text(text)
        status, _ = runner.run(["-c", f"import {PACKAGE}.{mutant.module}"], tmp, MIN_TIMEOUT)
        if status != "pass":
            return "invalid" if status == "fail" else "timeout"
        if timeouts is None:
            return "imports"
        files = MODULE_TESTS[mutant.module]
        for first in (True, False):
            status, _ = runner.run(_pytest(files, first), tmp, timeouts[mutant.module if first else "rest"])
            if status != "pass":
                return "killed" if status == "fail" else "timeout"
        return "survived"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _map(fn, items) -> list:
    """fn over items on a thread pool.  An interrupt does not wait for the running
    calls: the runner's exit kills their processes, and they end at once."""
    pool = ThreadPoolExecutor(WORKERS)
    try:
        return list(pool.map(fn, items))
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _baselines(runner: Runner, modules: list[str]) -> dict[str, float]:
    """Timeouts from the unmutated tree's runs, which must all pass."""
    tmp = runner.copy()
    try:
        jobs = {"rest": _pytest([], False), **{m: _pytest(MODULE_TESTS[m], True) for m in modules}}
        results = dict(zip(jobs, _map(lambda c: runner.run(c, tmp, 600.0), jobs.values())))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [k for k, (status, _) in results.items() if status != "pass"]
    if failed:
        raise SystemExit(f"the unmutated tree fails: {', '.join(failed)}")
    return {k: max(MIN_TIMEOUT, TIMEOUT_FACTOR * seconds) for k, (_, seconds) in results.items()}


def report(results: list[tuple[Mutant, str]]) -> str:
    """Per-module counts, then every survivor."""
    rows = ["module     mutants  killed  survived  invalid  timeout"]
    modules = list(dict.fromkeys(m.module for m, _ in results))
    for module in modules:
        statuses = [s for m, s in results if m.module == module]
        rows.append(f"{module:<10} {len(statuses):>7} {statuses.count('killed'):>7} "
                    f"{statuses.count('survived'):>9} {statuses.count('invalid'):>8} "
                    f"{statuses.count('timeout'):>8}")
    survivors = [m for m, s in results if s == "survived"]
    rows.append(f"\n{len(survivors)} survivor(s)" + (":" if survivors else ""))
    rows += [m.describe() for m in survivors]
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modules", default=",".join(DEFAULT_MODULES),
                        help=f"comma-separated modules of {PACKAGE} (default: %(default)s)")
    parser.add_argument("--per-module", type=int, default=25, help="mutants sampled a module")
    parser.add_argument("--seed", type=int, default=0, help="sample seed")
    parser.add_argument("--only", default="", help="comma-separated mutant ids (module:index) to run")
    parser.add_argument("--list", action="store_true", help="print the mutants and run nothing")
    parser.add_argument("--dry-run", action="store_true", help="apply and import each mutant, run no tests")
    parser.add_argument("--root", type=Path, default=REPO, help="tree to mutate (default: this repository)")
    args = parser.parse_args(argv)

    modules = [m for m in args.modules.split(",") if m]
    only = [i for i in args.only.split(",") if i]
    if only:
        modules = list(dict.fromkeys(i.split(":")[0] for i in only))
    unknown = [m for m in modules if m not in MODULE_TESTS]
    if unknown:
        parser.error(f"unknown module(s) {', '.join(unknown)}; known: {', '.join(MODULE_TESTS)}")

    def choose(root: Path) -> list[Mutant]:
        chosen = []
        for module in modules:
            every = mutants(root / "src" / PACKAGE / f"{module}.py", module)
            chosen += [m for m in every if m.id in only] if only else \
                sample(every, args.per_module, args.seed)
        return chosen

    if args.list:
        print("\n".join(m.describe() for m in choose(args.root)))
        return 0
    start = time.perf_counter()
    with Runner(args.root) as runner:
        chosen = choose(runner.tree)
        timeouts = None if args.dry_run else _baselines(runner, modules)
        done: list[tuple[Mutant, str]] = []

        def one(mutant: Mutant) -> tuple[Mutant, str]:
            status = run_mutant(runner, mutant, timeouts)
            done.append((mutant, status))
            print(f"[{len(done)}/{len(chosen)}] {mutant.id} {mutant.module}.py:{mutant.line} "
                  f"[{mutant.op}] {status}", flush=True)
            return mutant, status

        results = _map(one, chosen)
    print(f"\nseed {args.seed}, {len(chosen)} mutants, {time.perf_counter() - start:.0f} s\n")
    print(report(results))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)  # a kill tidies up as Ctrl-C does
    sys.exit(main())
