import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Demos whose whole stdout is pinned byte for byte.
EXPECTED_STDOUT = {
    "01_class_groups.py": (
        "=== Reduction ===\n"
        "(3,4,2) has discriminant -8\n"
        "its unique reduced representative is (1,0,2)\n"
        "\n"
        "(1,2,-1) is indefinite (discriminant 8);\n"
        "reduction lands on its cycle: (1,2,-1)\n"
        "\n"
        "=== Class groups ===\n"
        "D =    -23: h =   3, group Z/3\n"
        "          reduced forms: (1,1,6), (2,-1,3), (2,1,3)\n"
        "D =    -56: h =   4, group Z/4\n"
        "D =    -84: h =   4, group Z/2 x Z/2\n"
        "D =  -3299: h =  27, group Z/3 x Z/9\n"
        "\n"
        "=== Composition is the group law ===\n"
        "[(2,1,3)]^2 = [(2,-1,3)]\n"
        "[(2,1,3)] * [(2,-1,3)] = [(1,1,6)]  (the principal class)\n"
        "\n"
        "=== Indefinite class numbers need the fundamental unit ===\n"
        "D = 8: narrow h = 1, wide h = 1\n"
        "D = 40: narrow h = 2, wide h = 2\n"
        "D = 60: narrow h = 4, wide h = 2\n"
        "\n"
        "=== Splitting off the 2-part ===\n"
        "D = -23: Cl = Z/2^0 + odd part (3,)\n"
        "D = -56: Cl = Z/2^2 + odd part (trivial)\n"
        "D = -84: 2-Sylow of (2, 2) is not cyclic\n"
    ),
    "04_matrix_classes_and_sha.py": (
        "=== From a positive matrix to a quadratic order ===\n"
        "B = [1 1; 1 0]:  char poly (1, -1, -1),  Perron eigenvalue (1+sqrt(5))/2,  h = 1\n"
        "B = [2 1; 1 1]:  char poly (1, -3, 1),  Perron eigenvalue (3+sqrt(5))/2,  h = 1\n"
        "B = [6 1; 1 0]:  char poly (1, -6, -1),  Perron eigenvalue (6+sqrt(40))/2,  h = 2\n"
        "\n"
        "=== Counting GL(2,Z)-similarity classes by Latimer-MacDuffee ===\n"
        "(classes of matrices with a fixed irreducible char poly match the\n"
        " ideal class number of the order generated by a root)\n"
        "p = (1, -1, -1), disc    5: 1 classes (= h_wide = 1); representatives ['[0 -1; -1 1]']\n"
        "p = (1, -6, -1), disc   40: 2 classes (= h_wide = 2); representatives ['[0 -1; -1 6]', '[2 -3; -3 4]']\n"
        "p = (1, 1, 6), disc  -23: 3 classes (= h_wide = 3); representatives ['[-6 -6; 6 5]', '[-1 -2; 3 0]', '[-1 -3; 2 0]']\n"
        "\n"
        "=== Sha from the class group of the eigenvalue order ===\n"
        "B = [1 1; 1 0]: Cl = () (k = 0)  ->  Sha = trivial, order 1\n"
        "B = [6 1; 1 0]: Cl = (2,) (k = 1)  ->  Sha = Z/2, order 2\n"
        "B = [5 2; 2 1]: Cl = (2,) (k = 1)  ->  Sha = Z/2, order 2\n"
    ),
}


def test_demos_found():
    assert DEMOS  # an empty parametrization below would only skip


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if demo.name in EXPECTED_STDOUT:
        assert proc.stdout == EXPECTED_STDOUT[demo.name]
