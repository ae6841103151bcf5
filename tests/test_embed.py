"""Block circulants, their characteristic factorization, and the embedding
of guaranteed periodic eigenvalues into truncated finite matrices."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import signspectra.embed as embed_module
from signspectra import cli_io, polyroot, symbol
from signspectra.cloud import SpectrumCloud
from signspectra.density import directed_hausdorff
from signspectra.embed import block_circulant_charpoly, truncate, verify_embedding
from signspectra.errors import CapExceededError, ConvergenceError
from signspectra.signmodel import ensure_even_parity, parse_sign_vector
from signspectra.symbol import periodic_spectrum, preimages, symbol_poly, two_cos_pi

from oracles import (
    FACTORIZATION_SIZE_CAP,
    TridiagSignMatrix,
    _witness_for,
    all_sign_vectors,
    build_block_circulant,
    circulant_defect,
    circulant_factorization_check,
    dense_matrix,
    int_charpoly_oracle,
    match_multisets,
    ones,
    recurrence_by_rows,
    tags,
)

# every pattern of period <= 5 at n = 3..10: 496 (pattern, n) pairs
SWEEP_SPACE = [
    (k, n) for m in range(1, 6) for k in all_sign_vectors(m) for n in range(3, 11)
]


def _oracle_witnesses(k, n, res):
    """The unit vectors of recurrence_by_rows at res's targets, one column
    each, and their defects ||M x - lam x|| by the assembled block circulant."""
    keff = ensure_even_parity(k)
    values = res.targets.values()
    x, _ = recurrence_by_rows(keff.repeated(n).signs, values)
    mat = build_block_circulant(keff, n)
    return x, np.linalg.norm(mat @ x - x * values, axis=0)


def test_build_block_circulant_layouts():
    b = build_block_circulant(parse_sign_vector("+"), 4)
    expected = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    assert np.array_equal(b, np.array(expected, dtype=float))
    assert b.shape == (4, 4)

    c = build_block_circulant(parse_sign_vector("+-"), 2)
    expected = [[0, 1, 0, -1], [1, 0, 1, 0], [0, -1, 0, 1], [1, 0, 1, 0]]
    assert np.array_equal(c, np.array(expected, dtype=float))

    # overlapping corner and band entries add up at size two
    d = build_block_circulant(parse_sign_vector("+"), 2)
    assert np.array_equal(d, np.array([[0, 2], [2, 0]], dtype=float))

    with pytest.raises(ValueError):
        build_block_circulant(parse_sign_vector("+"), 1)


def test_block_circulant_charpoly_against_dense_oracle():
    # det(M - xI) vs division-free Berkowitz on the dense integer matrix
    for m in range(1, 5):
        for k in all_sign_vectors(m):
            for n in range(2, 12 // m + 1):
                a = build_block_circulant(k, n).astype(int)
                want = int_charpoly_oracle(a).scaled((-1) ** (n * m))
                got = block_circulant_charpoly(k, n)
                assert got.coeffs == want.coeffs, (k.to_text(), n)
    with pytest.raises(ValueError, match="n must be at least 2"):
        block_circulant_charpoly(parse_sign_vector("+"), 1)


@pytest.mark.parametrize("text,n", [("+", 4), ("-", 3), ("+-", 3), ("--", 4)])
def test_factorization_check_accepts_true_circulants(text, n):
    assert circulant_factorization_check(parse_sign_vector(text), n)


def test_factorization_check_rejects_corruption():
    k = parse_sign_vector("+")
    good = build_block_circulant(k, 4)
    flipped = good.copy()
    flipped[0, -1] = -flipped[0, -1]
    assert not circulant_factorization_check(k, 4, matrix=flipped)

    off_support = good.copy()
    off_support[0, 2] = 1.0
    assert not circulant_factorization_check(k, 4, matrix=off_support)

    assert not circulant_factorization_check(k, 4, matrix=np.zeros((5, 5)))


def test_factorization_check_size_cap():
    with pytest.raises(CapExceededError):
        circulant_factorization_check(
            parse_sign_vector("+"), FACTORIZATION_SIZE_CAP + 1
        )


def test_target_set_exact_values():
    zeros = verify_embedding(parse_sign_vector("+"), 4).targets
    assert match_multisets(zeros.values(), [0, 0], 0.0)
    assert sorted(tags(zeros)) == ["target:j=1", "target:j=3"]

    minus_ones = verify_embedding(parse_sign_vector("+"), 3).targets
    assert match_multisets(minus_ones.values(), [-1, -1], 0.0)

    pm_root2 = verify_embedding(parse_sign_vector("++"), 4).targets
    r = math.sqrt(2)
    assert match_multisets(pm_root2.values(), [r, -r, r, -r], 1e-12)


def test_target_set_refusals_and_empty_case():
    # n = 2 admits no angle (j = 1 is n/2, j = 2 is n), so the size that
    # would give an empty target set is refused for either parity, as is n = 1
    for text, n in (("++", 2), ("+-", 2), ("+", 1)):
        with pytest.raises(ValueError, match="n must be at least 3"):
            verify_embedding(parse_sign_vector(text), n)
    # n = 3 is the first size with an allowed angle, so no target set is empty
    res = verify_embedding(parse_sign_vector("++"), 3)
    assert res.excluded_angles == (3,)
    assert len(res.targets) == 2 * 2
    assert res.verified


def test_verify_embedding_size_cap():
    # the cap of 4096 applies to the effective size, after parity doubling:
    # "+-" runs as "+-+-", so n = 1025 gives nm = 4100
    for text, n in (("+" * 17, 241), ("+-", 1025), ("+", 10**8)):
        with pytest.raises(CapExceededError):
            verify_embedding(parse_sign_vector(text), n)


@pytest.mark.parametrize(
    "text,n,expected",
    [("+", 4, "++"), ("+-", 2, "-+"), ("+", 3, "+")],
)
def test_truncate_examples(text, n, expected):
    assert truncate(parse_sign_vector(text), n).to_text() == expected


def test_truncate_needs_three_sites():
    with pytest.raises(ValueError):
        truncate(parse_sign_vector("+"), 2)


def test_verify_embedding_refuses_before_solving(monkeypatch):
    # n = 2 leaves no allowed angle, whatever the pattern, so it is refused
    # rather than an empty success ("+" also has nm = 2, below the three
    # sites a truncation needs); the refusal must come before the preimage
    # solve, not after it
    def unreachable(*args):
        raise AssertionError("preimages called for a refused size")

    monkeypatch.setattr(embed_module, "preimages", unreachable)
    for text, n in (("+", 2), ("++", 2), ("+", 1)):
        with pytest.raises(ValueError, match="n must be at least 3"):
            verify_embedding(parse_sign_vector(text), n)


def test_verify_embedding_small_case():
    res = verify_embedding(parse_sign_vector("+"), 4)
    assert res.verified
    assert res.m == 1 and res.n == 4
    assert res.l.to_text() == "++"
    assert res.worst_residual <= 1e-12
    assert res.excluded_angles == (2, 4)
    # excluded angles land on the segment endpoints +-2
    assert match_multisets(res.excluded_values[0], [-2], 1e-10)
    assert match_multisets(res.excluded_values[1], [2], 1e-10)


def test_verify_embedding_doubles_odd_parity():
    res = verify_embedding(parse_sign_vector("+-"), 4)
    assert res.m == 4
    assert len(res.l) == 4 * 4 - 2
    assert res.verified


def test_verify_embedding_witnesses():
    res = verify_embedding(parse_sign_vector("+"), 4)
    assert len(res.witness_residuals) == len(res.targets) == 2
    x, defect = _oracle_witnesses(parse_sign_vector("+"), 4, res)
    assert x.shape == (4, 2)
    assert (np.abs(x[0]) <= 1e-10).all()
    assert (np.abs(np.linalg.norm(x, axis=0) - 1) <= 1e-9).all()
    assert (np.array(res.witness_residuals) >= defect).all()
    assert max(res.witness_residuals) <= 1e-6


def test_targets_lie_in_periodic_cloud():
    # 841 samples put every n-th root-of-unity angle (n <= 8) exactly on
    # the sampling grid, so the directed distance collapses to rounding
    for text in ("+", "++", "+-", "-+-", "----", "+--+"):
        k = parse_sign_vector(text)
        cloud = periodic_spectrum(k, 841)
        for n in range(3, 9):
            res = verify_embedding(k, n)
            assert directed_hausdorff(res.targets.values(), cloud.values()) <= 1e-8, (text, n)


def test_target_set_is_the_merge_of_one_cloud_per_angle():
    for text, n in (("+", 12), ("+-+-", 7), ("-----", 10)):
        keff = ensure_even_parity(parse_sign_vector(text))
        js = [j for j in range(1, n) if 2 * j != n]
        solved = preimages(symbol_poly(keff), [two_cos_pi(2 * j, n) for j in js])
        parts = [SpectrumCloud.from_values(v, f"target:j={j}") for j, v in zip(js, solved)]
        want = SpectrumCloud().merged(*parts)
        got = verify_embedding(keff, n).targets
        assert np.array_equal(got.values(), want.values())
        assert np.array_equal(got.codes(), want.codes())
        assert got.table() == want.table()


def test_mirrored_angles_give_bit_identical_targets():
    # verify_embedding solves one angle of each pair j, n - j on this premise
    for n in range(2, 513):
        for j in range(1, n):
            assert two_cos_pi(2 * j, n).hex() == two_cos_pi(2 * (n - j), n).hex(), (n, j)


def test_mirrored_target_rows_are_bitwise_equal():
    # the rows at j and n - j are equal bit for bit, and equal to the rows of
    # one solve of every allowed angle, where each row's batch differs
    for k, n in SWEEP_SPACE:
        keff = ensure_even_parity(k)
        js = [j for j in range(1, n) if 2 * j != n]
        full = preimages(symbol_poly(keff), [two_cos_pi(2 * j, n) for j in js])
        got = verify_embedding(k, n).targets.values().reshape(len(js), -1)
        assert got.tobytes() == full.tobytes(), (k.to_text(), n)
        for i, j in enumerate(js):
            assert got[i].tobytes() == got[js.index(n - j)].tobytes(), (k.to_text(), n, j)


def test_witnesses_over_the_sweep_space():
    # every reported residual is an upper bound on the dense defect of the
    # oracle's vector; the sweep space holds the 744-run set of test_cli
    for k, n in SWEEP_SPACE:
        res = verify_embedding(k, n)
        assert res.verified, (k.to_text(), n)
        x, defect = _oracle_witnesses(k, n, res)
        assert x.shape == (n * res.m, len(res.targets)) == (n * res.m, len(res.witness_residuals))
        assert (x[0] == 0).all()
        assert (np.abs(np.linalg.norm(x, axis=0) - 1) <= 1e-12).all()
        got = np.array(res.witness_residuals)
        assert (got >= defect).all(), (k.to_text(), n, (defect / got).max())
        assert (got <= 1e-12).all(), (k.to_text(), n)


def test_witness_spans_the_inverse_iteration_line():
    # the eigenvector of the truncation is unique up to scale, so the
    # recurrence and the dense inverse iteration must find the same line
    pairs = random.Random(20261018).sample(SWEEP_SPACE, 60)
    for k, n in pairs:
        res = verify_embedding(k, n)
        mat = build_block_circulant(ensure_even_parity(k), n)
        witnesses, _ = _oracle_witnesses(k, n, res)
        for i, value in enumerate(res.targets.values()):
            old = _witness_for(mat, value, i, np.random.default_rng(1000 + i))
            x = witnesses[:, i]
            assert abs(np.vdot(old.vector, x)) >= 1 - 1e-12, (k.to_text(), n, i)


def test_witness_tail_is_an_eigenvector_of_the_dense_truncation():
    for k, n in random.Random(7).sample(SWEEP_SPACE, 60):
        res = verify_embedding(k, n)
        trunc = dense_matrix(TridiagSignMatrix(res.l, ones(len(res.l))))
        x, _ = _oracle_witnesses(k, n, res)
        for y, value in zip(x[1:].T, res.targets.values()):
            assert np.linalg.norm(trunc @ y - value * y) <= 1e-12, (k.to_text(), n)


# sha256 of the float64 bytes of the residuals, the worst residual and the
# excluded residuals, taken while verify_embedding still kept witness vectors
PINNED_RESIDUAL_SHA256 = [
    ("+", 9, "84adc370fcee4976d4ff2cda37b11f92b2e31d62a3e0c2bbf317564f9b1777ec"),
    ("+--", 6, "3fb6a83f2bba65a18be966a16ba121528be1e77385b7147115a374e07a99b42a"),
    ("-+-+-", 10, "8901702196ae5b92e44f430441c79b455ce9d0c89c751443e37b1f373010b3ae"),
]


def test_residuals_keep_their_pinned_bytes():
    for text, n, digest in PINNED_RESIDUAL_SHA256:
        res = verify_embedding(parse_sign_vector(text), n)
        data = np.array([*res.residuals, res.worst_residual]).tobytes()
        data += res.excluded_residuals.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest, (text, n)


@pytest.mark.parametrize("text,n", [("+-+", 200), ("-", 400), ("+--+-", 100)])
def test_residuals_stay_finite_at_large_sizes(text, n):
    # sizes nm of 800 to 1,200, where the magnitude bound of the
    # characteristic determinant overflows
    k = parse_sign_vector(text)
    res = verify_embedding(k, n)
    assert res.verified
    assert res.worst_residual <= 1e-12
    assert np.isfinite(res.excluded_residuals).all()
    assert max(res.witness_residuals) <= 1e-12
    signs, values = ensure_even_parity(k).repeated(n).signs, res.targets.values()
    x, _ = recurrence_by_rows(signs, values)
    assert (np.array(res.witness_residuals) >= circulant_defect(signs, x, values)).all()


@pytest.mark.parametrize("shift", [1e-4, 1e-2, 0.1])
def test_shifted_targets_are_not_verified(monkeypatch, shift):
    # a point off the spectrum must fail the residual test at every size;
    # a residual normalized by a bound that grows like (|lam| + 1)^nm
    # passes such points once nm reaches a few dozen
    solve = embed_module.preimages
    monkeypatch.setattr(
        embed_module, "preimages", lambda p, t: solve(p, t) + shift
    )
    for text, n in (("+", 5), ("+-", 10), ("+--", 10), ("-+-+-", 10), ("+-+", 200)):
        res = verify_embedding(parse_sign_vector(text), n)
        assert not res.verified, (text, n)
        assert min(res.residuals) > 1e-8, (text, n)


@pytest.mark.parametrize("size", [1000, 4096])
def test_streamed_recurrence_equals_the_stored_rows(size):
    # off-spectrum values grow fast, so their columns are rescaled many
    # times; the residual on the truncation must agree bitwise, and the
    # boundary rows of the circulant with those of the stored unit vectors
    rng = np.random.default_rng(20261019 + size)
    signs = tuple(int(s) for s in rng.choice([-1, 1], size))
    seeded = rng.uniform(-2.5, 2.5, 40) + 1j * rng.uniform(-2.5, 2.5, 40)
    lams = np.r_[3, 2.5 + 0.5j, 0.1j, 2, -2, seeded]
    want_x, want = recurrence_by_rows(signs, lams)
    got, boundary = embed_module._recurrence(signs, lams)
    assert got.tobytes() == want.tobytes()
    # |y_1| = 1 / ||x|| below 2^-600 needs a column rescaled at least twice
    assert (np.abs(want_x[1]) < 2.0**-600).sum() >= 5
    corner = want_x[1] + signs[-1] * want_x[-1]
    assert np.allclose(boundary, np.hypot(np.abs(corner), want), rtol=1e-12, atol=0)


def test_banded_witness_defect_equals_the_dense_product():
    # M has one +1 and one sign per row, so the oracle's banded action is
    # the dense product bit for bit, which lets the cap test skip the dense
    # matrix; nm = 3 and 4 are the smallest circulants
    extra = [(parse_sign_vector(t), n) for t, n in (("+", 200), ("+-+", 100), ("+--+-", 30))]
    for k, n in SWEEP_SPACE + extra:
        res = verify_embedding(k, n)
        x, want = _oracle_witnesses(k, n, res)
        got = circulant_defect(ensure_even_parity(k).repeated(n).signs, x, res.targets.values())
        assert got.tobytes() == want.tobytes(), (k.to_text(), n)
    assert (parse_sign_vector("+"), 3) in SWEEP_SPACE and (parse_sign_vector("+"), 4) in SWEEP_SPACE


@pytest.mark.parametrize("text,n", [("+-", 1024), ("-", 2048), ("-+-+-", 409)])
def test_witnesses_at_the_cap_bound_the_oracle_defect(text, n):
    # effective nm of 4,090 to 4,096; 64 seeded targets of each, whose
    # oracle vectors alone are 4 MiB
    k = parse_sign_vector(text)
    res = verify_embedding(k, n)
    assert embed_module.EMBED_SIZE_CAP - 10 <= res.m * n <= embed_module.EMBED_SIZE_CAP
    pick = np.random.default_rng(4096).choice(len(res.targets), 64, replace=False)
    signs, values = ensure_even_parity(k).repeated(n).signs, res.targets.values()[pick]
    x, _ = recurrence_by_rows(signs, values)
    got = np.array(res.witness_residuals)[pick]
    assert (got >= circulant_defect(signs, x, values)).all()
    assert max(res.witness_residuals) <= 1e-10


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embedding_at_the_cap_keeps_no_rows():
    # effective nm = 4,096; storing the rows of every target took 769 MiB
    peak = _traced_peak(lambda: verify_embedding(parse_sign_vector("+-"), 1024))
    assert peak < 16 * 2**20, peak / 2**20


def _child_peak_mib(argv) -> float:
    # a wrapper process runs the command, so its RUSAGE_CHILDREN peak is
    # that one child's and no other child of the test run
    src = os.path.dirname(os.path.dirname(cli_io.__file__))
    wrapper = ("import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True, "
               "stdout=subprocess.DEVNULL); "
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    out = subprocess.run([sys.executable, "-c", wrapper, sys.executable, "-m",
                          "signspectra.cli_io", *argv], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    return int(out.stdout) / 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.slow
def test_witness_flag_costs_no_memory_at_the_cap(tmp_path):
    # effective nm = 4,096; keeping the witness vectors took 303 MiB against
    # 38 MiB without them
    argv = ["embed", "--k=+-", "--n", "1024", "--out", str(tmp_path / "e.json")]
    plain, witness = _child_peak_mib(argv), _child_peak_mib([*argv, "--witness"])
    assert abs(witness - plain) <= 10, (plain, witness)


def test_embed_error_names_period_pattern_n_and_angle(monkeypatch):
    monkeypatch.setattr(symbol, "roots_many", functools.partial(polyroot.roots_many, max_iter=1))
    k, n = parse_sign_vector("+-+"), 5
    keff = ensure_even_parity(k)
    # the solve takes one angle of each mirrored pair j, n - j, then j = n
    js = [1, 2, 5]
    with pytest.raises(ConvergenceError) as raw:
        preimages(symbol_poly(keff), [two_cos_pi(2 * j, n) for j in js])
    with pytest.raises(ConvergenceError) as exc:
        verify_embedding(k, n)
    # the row and the residual pass through; the message names the rest
    assert exc.value.row == raw.value.row and exc.value.worst_residual == raw.value.worst_residual
    j = js[exc.value.row]
    assert str(exc.value) == f"embed, period 6, pattern +-++-+, n = 5, angle j = {j}: {raw.value}"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert cli_io.main(["embed", "--k=+-+", "--n", "5"]) == 3
    assert err.getvalue() == f"numerical failure: {exc.value}\n"
