"""Mutation gate: every listed mutant of src/ must make the tier-1 suite fail.

Each mutant is (file under src/macckit/, exact old text, new text).  For each
one the runner copies src/, tests/, perfbench/, pyproject.toml and README.md
into a fresh temporary directory, replaces the old text in the copy, and runs
``python -m pytest -q -x -p no:cacheprovider`` there.  The whole tree is
copied because pyproject.toml puts its own src/ on the path, and some tests
read perfbench/ and README.md.  Before any mutant runs, each old text must
occur exactly once, so a stale entry cannot count as killed, and the
unmutated copy must pass, so a copy that fails for another reason kills
nothing.  A surviving mutant fails the gate unless EQUIVALENT gives the
reason it cannot change behaviour.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

It prints one line per mutant and exits 1 if any mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
SKIPPED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".work")
PYTEST = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider")
#: a run longer than this counts as a failure of the suite, so as a kill
TIMEOUT_S = 600

MUTANTS: tuple[tuple[str, str, str], ...] = (
    # bounds: the last maximum wins ties instead of the first
    ("bounds.py", "if value > best_value:", "if value >= best_value:"),
    # Thm 2 reads s + L caches instead of s + L - 1
    ("bounds.py", "p = min(s + L - 1, K)", "p = min(s + L, K)"),
    # the common denominator ignores the slopes' denominators
    (
        "bounds.py",
        "D = lcm(*(f.denominator for _, a, b in terms for f in (a, b)))",
        "D = lcm(*(a.denominator for _, a, b in terms))",
    ),
    # lemma 2's lambda is 1/2 exactly where it should be 1
    ("bounds.py", "lam_den = 1 if s * t == L else 2", "lam_den = 2 if s * t == L else 1"),
    # Thm 2's l range stops one short
    ("bounds.py", "for l in range(1, -(-params.N // s) + 1):", "for l in range(1, -(-params.N // s)):"),
    # lemma 2's pruned space loses b = 1
    ("bounds.py", "sorted({1, N // cs, -(-N // cs), b_cap})", "sorted({N // cs, -(-N // cs), b_cap})"),
    # dominance does not check improved >= cutset at M = 0
    ("bounds.py", "lemma3.R, m <= full_access)", "lemma3.R, 0 < m <= full_access)"),
    # serialize: decimals with 11 significant digits instead of 12
    ("serialize.py", 'f"{float(x):.12g}"', 'f"{float(x):.11g}"'),
    # params: a bool passes as an int
    ("params.py", "if not isinstance(value, int) or isinstance(value, bool):", "if not isinstance(value, int):"),
    # tradeoff: the (3, 2, 3) optimum's middle piece has the wrong slope
    ("tradeoff.py", "return Fraction(7, 3) - 2 * m", "return Fraction(7, 3) - 3 * m"),
    # tradeoff: a collinear middle point stays a hull vertex
    ("tradeoff.py", "_cross(hull[-2], hull[-1], p) <= 0", "_cross(hull[-2], hull[-1], p) < 0"),
    # schemes: appendix B's second cache half XORs the wrong subfiles
    (
        "schemes.py",
        "xor_bits(sub[0], sub[1]) + xor_bits(sub[1], sub[2])",
        "xor_bits(sub[0], sub[1]) + xor_bits(sub[0], sub[2])",
    ),
    # schemes: the worst-case rate is the last demand's rate
    ("schemes.py", "worst = max(worst, transmission.rate)", "worst = transmission.rate"),
    # schemes: a demand of the wrong length is not refused
    ("schemes.py", "if len(demand) != params.K:", "if False:"),
    # entropy: the unconditional margins are reversed
    (
        "entropy.py",
        "return sequences, sequences[:, :-1] - sequences[:, 1:]",
        "return sequences, sequences[:, 1:] - sequences[:, :-1]",
    ),
    # entropy: a zero-weight conditioner value's all-zero slice is checked
    ("entropy.py", "_check_tables(slices[live])", "_check_tables(slices)"),
    # entropy: a margin fails only below -2 tol
    ("entropy.py", "margins < -tol", "margins < -2 * tol"),
    # entropy: a tiny negative probability passes
    ("entropy.py", "if (tables < 0).any():", "if (tables < -1e-300).any():"),
)

#: (file, old, new) -> why the mutant cannot change behaviour
EQUIVALENT: dict[tuple[str, str, str], str] = {}


def _suite_passes(mutant: tuple[str, str, str] | None) -> bool:
    """Whether the tier-1 suite passes on a fresh copy of the tree, with the
    mutant applied when one is given."""
    with tempfile.TemporaryDirectory(prefix="macckit-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=SKIPPED)
            else:
                shutil.copy2(source, copy / name)
        if mutant is not None:
            file, old, new = mutant
            path = copy / "src" / "macckit" / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        try:
            result = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False
        if result.returncode not in (0, 1):  # 1: a test failed or could not import
            raise SystemExit(f"pytest exited {result.returncode} on {mutant}:\n{result.stdout.decode()[-2000:]}")
        return result.returncode == 0


def main() -> int:
    started = time.perf_counter()
    for file, old, _ in MUTANTS:
        count = (ROOT / "src" / "macckit" / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            raise SystemExit(f"stale mutant: {old!r} occurs {count} times in {file}")
    if not _suite_passes(None):
        print("the unmutated copy fails its tests, so no mutant can be judged")
        return 1
    survivors = 0
    for mutant in MUTANTS:
        begun = time.perf_counter()
        if not _suite_passes(mutant):
            verdict = "killed"
        elif mutant in EQUIVALENT:
            verdict = f"equivalent ({EQUIVALENT[mutant]})"
        else:
            verdict, survivors = "SURVIVED", survivors + 1
        file, old, new = mutant
        print(f"{verdict:8} {time.perf_counter() - begun:6.1f}s  {file}: {old!r} -> {new!r}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survivors} survived, {time.perf_counter() - started:.0f}s in all")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
