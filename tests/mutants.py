"""Mutation harness: each mutant is one textual edit of a source file, and a
named test must fail under it.

The harness copies src/ into a temporary directory and first runs every
killer against the unedited copy, so a killer that fails anyway is reported
as an error, not as a kill.  Then, one mutant at a time, it applies the edit
to the copy, runs that mutant's killer against it and restores the file.  A
mutant whose killer passes has survived.  Uses the standard library only.

Run from anywhere, with pytest installed:

    python tests/mutants.py

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when the
harness itself cannot run (an edit that does not match exactly once, a killer
that fails on the unedited source, a copy that is not the one imported).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/invalg, old text, new text, killer test)
MUTANTS = [
    # M5: the jet product drops every term of a mask with two or more
    # directions, so each jet of depth >= 2 loses its mixed slots
    ("jet.py", "if len(a) > 2:", "if False:", "tests/test_jet.py::test_scalar_depth2_product"),
    # J: the Jacobiator adds the derivative of [x, y] along rho(z) instead of
    # subtracting it
    ("algebroid.py", "- xy.row(1)", "+ xy.row(1)",
     "tests/test_algebroid.py::test_jacobiator_matches_polynomial_brackets"),
]


def run_tests(src: Path, tests) -> bool:
    """Whether the tests pass against the invalg under src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        imported = subprocess.run(
            [sys.executable, "-c", "import invalg; print(invalg.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
        if Path(imported.stdout.strip()).parent != src / "invalg":
            print("error: the copy is not the invalg imported: %s" % imported.stdout.strip())
            return 2
        for file, old, _, _ in MUTANTS:
            count = (src / "invalg" / file).read_text().count(old)
            if count != 1:
                print("error: %r occurs %d times in %s, not once" % (old, count, file))
                return 2
        killers = sorted({killer for *_, killer in MUTANTS})
        if not run_tests(src, killers):
            print("error: a killer fails on the unedited source: %s" % " ".join(killers))
            return 2
        survivors = 0
        for file, old, new, killer in MUTANTS:
            path = src / "invalg" / file
            original = path.read_text()
            path.write_text(original.replace(old, new))
            try:
                killed = not run_tests(src, [killer])
            finally:
                path.write_text(original)
            print("%s: %s: %r -> %r by %s"
                  % ("killed" if killed else "SURVIVED", file, old, new, killer))
            survivors += not killed
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
