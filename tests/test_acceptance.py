"""Acceptance suite: eleven numbered criteria, one test each.

Every test prints a single "criterion N: PASS/FAIL" line directly to the
terminal (bypassing capture) so the verdict survives any pytest output mode.
Numeric checks are exact rational comparisons throughout; there are no
floating-point tolerances anywhere in this suite.
"""
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from fischerlab import catalog, fischer, groups, matsuo, virasoro

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"

# Every supported catalog instance with at most 100 transpositions.
ROSTER = (
    [f"symmetric:n={n}" for n in range(3, 13)]
    + [f"symplectic-f2:n={n}" for n in range(1, 4)]
    + ["orthogonal-f2:dim=4,eps=+", "orthogonal-f2:dim=4,eps=-",
       "orthogonal-f2:dim=6,eps=+", "orthogonal-f2:dim=6,eps=-"]
    + [f"orthogonal-f3:dim={d}" for d in (3, 4, 5)]
    + [f"weyl:type=A,rank={r}" for r in range(2, 8)]
    + [f"weyl:type=D,rank={r}" for r in range(4, 7)]
    + ["weyl:type=E,rank=6", "weyl:type=E,rank=7"]
)

PAIRS = ((F(1, 2), F(1, 2)), (F(2, 5), F(4, 5)), (F(1, 2), F(1, 16)))


@contextmanager
def criterion(capsys, number, title):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {number}: FAIL - {title}")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\ncriterion {number}: PASS - {title} [{elapsed:.1f}s]")


def rank_oracle(matrix):
    """Independent rank computation: plain Gauss-Jordan over Fraction."""
    m = [[F(x) for x in row] for row in matrix]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][c]
        m[rank] = [x / lead for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_criterion_1_matsuo_axioms(capsys, system_factory):
    with criterion(capsys, 1, "Matsuo axioms exhaustive on the full roster"):
        for descriptor in ROSTER:
            sys_ = system_factory(descriptor)
            assert sys_.size <= 100
            for alpha, beta in PAIRS:
                algebra = matsuo.MatsuoAlgebra(sys_, alpha, beta)
                assert algebra.verify_axioms()


def test_criterion_2_eigenstructure(capsys, system_factory):
    # Note: the alpha eigenspace of axis i has dimension k/2, not k.  The
    # spanning vectors x^j - x^{i o j} pair the k neighbors two by two, so
    # only k/2 of them are independent; the 3-point algebra (k = 2) has the
    # 1-dimensional alpha space span{x^2 - x^3}, confirming k/2.
    with criterion(capsys, 2, "adjoint spectra {2, 0, alpha} and Miyamoto maps"):
        for descriptor in ROSTER:
            sys_ = system_factory(descriptor)
            for alpha, beta in PAIRS:
                assert alpha not in (0, 2)
                algebra = matsuo.MatsuoAlgebra(sys_, alpha, beta)
                for i in range(algebra.n):
                    dims = algebra.adjoint_spectrum(i).dims
                    k_i = len(sys_.neighbors(i))
                    assert dims[2] == 1
                    assert dims[alpha] == k_i // 2
                    assert k_i % 2 == 0
                    assert sum(dims.values()) == algebra.n
                    # miyamoto() verifies: involution, algebra automorphism,
                    # form isometry, +1 on the {2, 0} spaces, -1 on alpha
                    pi = algebra.miyamoto(i)
                    assert pi.is_involution()


def test_criterion_3_unity(capsys, system_factory):
    with criterion(capsys, 3, "unity identities on connected instances"):
        checked = 0
        for descriptor in ROSTER:
            sys_ = system_factory(descriptor)
            comps = fischer.components(sys_)
            if len(comps) != 1:
                continue
            k = fischer.valency(sys_, comps[0])
            for alpha, beta in PAIRS:
                if k * alpha + 4 == 0:
                    continue
                algebra = matsuo.MatsuoAlgebra(sys_, alpha, beta)
                omega = algebra.unity()  # verifies omega x^i = 2 x^i,
                # (omega | x^i) = beta/2 and idempotency of omega/2 exactly
                assert omega is not None
                checked += 1
        assert checked > 50


def test_criterion_4_sigma_kernel_is_center(capsys, system_factory):
    targets = (
        ["symmetric:n=3", "symmetric:n=4", "symmetric:n=5", "symmetric:n=6"]
        + ["symplectic-f2:n=1", "symplectic-f2:n=2"]
        + ["weyl:type=A,rank=2", "weyl:type=A,rank=3", "weyl:type=A,rank=4"]
    )
    with criterion(capsys, 4, "sigma homomorphism kernel equals the center"):
        for descriptor in targets:
            sys_ = system_factory(descriptor)
            group = sys_.group()
            algebra = matsuo.MatsuoAlgebra(sys_, F(1, 2), F(1, 2))
            action = algebra.sigma_action(group)  # verifies kernel == center
            center_keys = sorted(z.key for z in groups.center(group))
            assert sorted(action.kernel_keys) == center_keys


def test_criterion_5_symplectic_type_verdicts(capsys, system_factory):
    symplectic_roster = (
        [f"symmetric:n={n}" for n in range(3, 9)]
        + [f"symplectic-f2:n={n}" for n in range(1, 4)]
        + ["orthogonal-f2:dim=4,eps=+", "orthogonal-f2:dim=4,eps=-",
           "orthogonal-f2:dim=6,eps=+", "orthogonal-f2:dim=6,eps=-"]
    )
    with criterion(capsys, 5, "H-triple verdicts and Sp6(2) closure budget"):
        for descriptor in symplectic_roster:
            assert fischer.detect_H_triple(system_factory(descriptor)) is None
        start = time.perf_counter()
        sp6 = system_factory("symplectic-f2:n=3").group()
        assert sp6.order == 1_451_520
        assert time.perf_counter() - start < 120
        sys5 = system_factory("orthogonal-f3:dim=5")
        witness = fischer.detect_H_triple(sys5)
        assert witness is not None
        h = fischer.extract_H(sys5, witness)
        assert h.order == 54
        assert len(groups.center(h)) == 3


def test_criterion_6_isomorphism_fingerprints(capsys, system_factory):
    with criterion(capsys, 6, "orthogonal-F2 group-order fingerprints"):
        minus4 = system_factory("orthogonal-f2:dim=4,eps=-")
        assert minus4.size == 10
        assert minus4.group().order == 120  # S_5 fingerprint
        plus6 = system_factory("orthogonal-f2:dim=6,eps=+")
        assert plus6.group().order == 40320  # S_8 fingerprint


def test_criterion_7_unitary_series_numerics(capsys):
    with criterion(capsys, 7, "central charges and small weight grids"):
        assert virasoro.central_charge(1) == F(1, 2)
        assert virasoro.central_charge(2) == F(7, 10)
        assert virasoro.central_charge(3) == F(4, 5)
        assert set(virasoro.weights(1)) == {F(0), F(1, 2), F(1, 16)}
        assert F(7, 10) not in virasoro.weights(2)
        assert {F(0), F(3), F(2, 5), F(7, 5), F(2, 3), F(1, 15)} <= set(
            virasoro.weights(3)
        )


def test_criterion_8_fusion_grading(capsys):
    with criterion(capsys, 8, "tau/sigma gradings multiplicative for m <= 6"):
        for m in range(1, 7):
            labels = virasoro.irreducibles(m)
            for a in labels:
                assert virasoro.fuse(m, (1, 1), a) == (a,)
                for b in labels:
                    out = virasoro.fuse(m, a, b)
                    assert out == virasoro.fuse(m, b, a)
                    expect = virasoro.tau_sign(m, a) * virasoro.tau_sign(m, b)
                    assert all(virasoro.tau_sign(m, c) == expect for c in out)
            sector = virasoro.sigma_sector(m)
            for a in sector:
                for b in sector:
                    out = virasoro.fuse(m, a, b)
                    assert all(virasoro.in_sigma_sector(m, c) for c in out)
                    expect = virasoro.sigma_sign(m, a) * virasoro.sigma_sign(m, b)
                    assert all(virasoro.sigma_sign(m, c) == expect for c in out)


def test_criterion_9_sakuma_data(capsys, system_factory):
    with criterion(capsys, 9, "dihedral table rows and pair typing"):
        tags = [r.type_tag for r in virasoro.SAKUMA_TABLE]
        assert tags == ["1A", "2A", "3A", "4A", "5A", "6A", "4B", "2B", "3C"]
        assert virasoro.lookup_by_type("3A").inner_product == F(13, 1024)
        assert virasoro.lookup_by_type("2A").inner_product == F(1, 32)
        expected_form = {"1A": F(1, 4), "2A": F(1, 32), "2B": F(0)}
        for descriptor in ("symmetric:n=5", "symplectic-f2:n=2",
                           "orthogonal-f2:dim=4,eps=-"):
            sys_ = system_factory(descriptor)
            algebra = matsuo.MatsuoAlgebra(sys_, F(1, 2), F(1, 2))
            seen = set()
            for i in range(algebra.n):
                for j in range(i, algebra.n):
                    tag = algebra.pair_type(i, j)
                    seen.add(tag)
                    assert algebra.gram_entry(i, j) == expected_form[tag]
            assert seen == {"1A", "2A", "2B"}


def test_criterion_10_radical_and_quotient(capsys, system_factory):
    with criterion(capsys, 10, "radical vs rank oracle, ideal property, quotient"):
        for n in range(3, 9):
            sys_ = system_factory(f"symmetric:n={n}")
            algebra = matsuo.MatsuoAlgebra(sys_, F(1, 2), F(1, 2))
            radical = algebra.gram_radical()
            oracle_nullity = algebra.n - rank_oracle(algebra.gram)
            assert len(radical) == oracle_nullity
            # ideal property: each radical vector stays in the radical span
            # under multiplication by every axis
            base_rank = rank_oracle(radical) if radical else 0
            for row in radical:
                vec = [F(x) for x in row]
                for i in range(algebra.n):
                    prod = algebra.multiply(vec, algebra.axis(i))
                    assert rank_oracle(radical + [prod]) == base_rank
            quotient = algebra.quotient(radical)
            assert rank_oracle(quotient.gram) == quotient.dim


def test_criterion_11_determinism_across_threads(capsys, tmp_path):
    with criterion(capsys, 11, "byte-identical analyze output at 1/2/8 threads"):
        outputs = []
        for threads in (1, 2, 8):
            proc = subprocess.run(
                [sys.executable, "-m", "fischerlab.cli", "analyze",
                 "symplectic-f2:n=3", "--threads", str(threads), "--json"],
                capture_output=True,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        payload = json.loads(outputs[0])
        assert payload["group_order"] == 1_451_520
        assert payload["class_size"] == 63


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
