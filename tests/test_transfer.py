import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

import spinmech
from spinmech.analysis import analyze
from spinmech.errors import ConvergenceError, SpinmechError
from spinmech.hamiltonian import Hamiltonian
from spinmech.info import log_matvec
from spinmech.lattice import BINARY, BlockSpace, SpinAlphabet
from spinmech.models import NNNParams, NNParams, nn_ising, nnn_ground_state_phase, nnn_ising
from spinmech.transfer import (
    GROUND_STATE_BETA,
    asymptotic_log_partition,
    build_transfer,
    partition_function,
    subdominant_ratio,
)


def test_nn_transfer_matrix_closed_form():
    beta, j = 1.3, 0.8
    ts = build_transfer(nn_ising(NNParams(J=j, B=0.0, beta=beta)), beta)
    expected = np.array([[beta * j, -beta * j], [-beta * j, beta * j]])
    assert np.allclose(ts.log_v, expected, atol=1e-14)


def test_infinite_temperature_is_uniform():
    ts = build_transfer(nnn_ising(NNNParams(J1=0.9, J2=-0.4, B=0.7, beta=0.0)), 0.0)
    assert np.allclose(ts.log_v, 0.0)
    assert ts.log_lambda0 == pytest.approx(np.log(4.0))


def test_dominant_eigenvalue_nn():
    ts = build_transfer(nn_ising(NNParams(J=1.0, B=0.0, beta=1.0)), 1.0)
    assert ts.log_lambda0 == pytest.approx(np.log(2.0 * np.cosh(1.0)), abs=1e-13)


def test_perron_pair_properties():
    for beta, j, b in [(1.0, 1.0, 0.0), (0.7, -1.2, 0.9), (2.5, 0.3, -1.1)]:
        ts = build_transfer(nn_ising(NNParams(J=j, B=b, beta=beta)), beta)
        left, right = np.exp(ts.log_left), np.exp(ts.log_right)
        assert ts.perron_residual <= 1e-12
        assert np.all(left > 0) and np.all(right > 0)
        assert np.dot(left, right) == pytest.approx(1.0, abs=1e-12)
        if b == 0.0:
            assert right[0] == pytest.approx(right[1], abs=1e-14)


def _ternary_range3_model() -> Hamiltonian:
    # symmetric in the spins at every distance, but not a product of spin values
    table = np.array(
        [
            [[0.9, -0.4, 0.3], [-0.4, 0.1, -0.7], [0.3, -0.7, 0.5]],
            [[-0.2, 0.6, 0.05], [0.6, -0.3, 0.25], [0.05, 0.25, 0.8]],
            [[0.15, -0.1, -0.35], [-0.1, 0.45, 0.2], [-0.35, 0.2, -0.6]],
        ]
    )
    space = BlockSpace(SpinAlphabet((-1.0, 0.0, 1.0)), 3)
    return Hamiltonian(space, 0.3, table)


@pytest.mark.parametrize(
    "model,beta",
    [
        (nnn_ising(NNNParams(J1=-0.7, J2=0.45, B=0.6, beta=2.0)), 2.0),
        (nnn_ising(NNNParams(J1=-2.0, J2=-1.0, B=1.3, beta=1000.0)), 1000.0),
        (_ternary_range3_model(), 1.7),
    ],
    ids=["nnn", "nnn-ground-state", "ternary-range3"],
)
def test_left_vector_is_block_reversal_of_right(model, beta):
    ts = build_transfer(model, beta)
    reversal = model.blocks.reversal
    assert model.blocks.n >= 2
    assert np.max(np.abs(ts.log_v.T - ts.log_v[reversal][:, reversal])) <= 1e-12
    # left eigen-equation V^T l = lambda0 l, checked in the log domain
    gap = log_matvec(ts.log_v.T, ts.log_left) - ts.log_left - ts.log_lambda0
    finite = np.isfinite(ts.log_left)
    assert np.any(finite)
    assert np.max(np.abs(gap[finite])) <= 1e-10


def test_perron_residual_small_on_nnn_instances():
    rng = np.random.default_rng(3)
    for _ in range(20):
        beta = float(np.exp(rng.uniform(np.log(0.01), np.log(GROUND_STATE_BETA))))
        model = nnn_ising(
            NNNParams(
                J1=rng.uniform(-1.5, 1.5),
                J2=rng.uniform(-1.5, 1.5),
                B=rng.uniform(-2, 2),
                beta=beta,
            )
        )
        ts = build_transfer(model, beta)
        assert ts.perron_residual <= 1e-12


def _perron_root_mp(log_v: np.ndarray) -> float:
    # the working precision spans the entries' dynamic range plus guard
    # digits, so the smallest entries still count next to the largest
    with mpmath.workdps(60 + int(np.ptp(log_v) / np.log(10.0))):
        v = mpmath.matrix([[mpmath.exp(mpmath.mpf(float(e))) for e in row] for row in log_v])
        eigvals = mpmath.eig(v, left=False, right=False)
        return float(mpmath.log(max(mpmath.re(e) for e in eigvals)))


@pytest.mark.parametrize(
    "beta,j1,j2,b",
    [
        (10.946848966924051, -0.9820368477181428, 0.38648716039606934, 1.575824510358899),
        (32.074030882273675, -1.2147745465710615, 0.026962915685385003, 1.9841739497239619),
        (61.00339629753518, -0.46827835995660694, 0.06657988677912785, -0.5361064415311954),
        (4.834428131461872, -1.442543219834986, 1.476629202597513, -2.6281037792634105),
        (98.46413303034268, -1.4599482126402354, -0.29367314957596546, -1.432160184262166),
    ],
    ids=["draw-44", "draw-137", "draw-466", "draw-485", "draw-875"],
)
def test_nearly_periodic_nnn_points_are_certified_or_fail(beta, j1, j2, b):
    # points of the seed-1 Fig-1 NNN draw whose Perron pair once came out
    # wrong with no error: each is now right, or fails with a typed error
    model = nnn_ising(NNNParams(J1=j1, J2=j2, B=b, beta=beta))
    try:
        result = analyze(model, beta)
    except SpinmechError:
        return
    assert abs(result.log_lambda0 - _perron_root_mp(build_transfer(model, beta).log_v)) <= 1e-9
    # per class, h_mu ln2 = log(lambda0) + beta <x + y> for any P = V r / (lambda r)
    x, y, chain = model.intra_energies, model.cross_energies, result.chain
    for members, pi, machine in zip(chain.classes, chain.class_pis, result.block.machines):
        sub = chain.matrix[np.ix_(members, members)]
        sub = sub / sub.sum(axis=1, keepdims=True)
        energy = np.sum(pi[:, None] * sub * (x[members][:, None] + y[np.ix_(members, members)]))
        assert abs(machine.h_mu * np.log(2.0) - result.log_lambda0 - beta * energy) <= 1e-9
    assert abs(result.h_mu - 2.0 * result.h_mu_spin) <= 1e-9


@pytest.mark.parametrize(
    "phase,j1,j2,b",
    [
        ("P2", -1.05, -0.13, 1.43),
        ("P3", -0.7660197129220996, -1.0147677318958734, -2.0579665582229705),
    ],
)
def test_periodic_ground_states_reach_a_certified_perron_pair(phase, j1, j2, b):
    # nearly periodic chains on which ten thousand plain power steps stall
    params = NNNParams(J1=j1, J2=j2, B=b, beta=GROUND_STATE_BETA)
    assert nnn_ground_state_phase(params) == phase
    ts = build_transfer(nnn_ising(params), GROUND_STATE_BETA)
    assert ts.perron_residual <= 1e-12


# (field, couplings by distance, beta) of product chains on which the
# refinement once ran forever: a standalone range-5 point, then range 3
# index 432, range 4 index 1056 and range 5 indices 340 and 585 of the
# wide-beta draw of scripts/reviewer_draw.py
UNENDING_POINTS = [
    (
        -2.062304043931057,
        [-0.18002780285854048, 0.47637805450201265, -1.3996535534625523, 0.3602406104390832, -0.7792964940016102],
        42.69274303839124,
    ),
    (
        -2.767975367236438,
        [-1.3522951120012578, 0.48509704722615465, -0.9627970015196915],
        24.99674452537551,
    ),
    (
        -0.19156505055452122,
        [-1.4751014179272444, -0.820572787049394, 0.6036975526274344, 0.5105262355852558],
        GROUND_STATE_BETA,
    ),
    (
        -0.18485631981378337,
        [-0.5186482860166349, 1.20092282847083, -1.365825257597952, -0.24403778974461265, -1.2202889082175528],
        45.09518639181669,
    ),
    (
        -0.15887164927175856,
        [-1.3047379232207752, -1.2164640060688257, -0.9302389672281807, -1.2309706674193124, -0.3498130252212346],
        GROUND_STATE_BETA,
    ),
]

# analyze each point of argv[2] (a repr of UNENDING_POINTS), printing its status
ANALYZE_POINTS = """
import ast, sys
sys.path.insert(0, sys.argv[1])
from spinmech.analysis import analyze
from spinmech.errors import SpinmechError
from spinmech.hamiltonian import Hamiltonian
from spinmech.lattice import BINARY, BlockSpace
for field, couplings, beta in ast.literal_eval(sys.argv[2]):
    try:
        analyze(Hamiltonian.pair_product(BlockSpace(BINARY, len(couplings)), field, couplings), beta)
        print("ok")
    except SpinmechError as exc:
        print(type(exc).__name__)
"""


def test_refinement_ends_where_it_neither_settles_nor_stalls():
    # a pair of roots +-lambda that the first squaring leaves mixed: the
    # step cap ends the refinement and the Perron gate types the point; a
    # child process holds the wall limit should the loop run on
    root = os.path.dirname(os.path.dirname(spinmech.__file__))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", ANALYZE_POINTS, root, repr(UNENDING_POINTS)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ConvergenceError"] * len(UNENDING_POINTS)


def test_root_past_the_float_range_fails_with_a_residual_and_no_warning():
    # the refinement settles at log root 11704.6, whose exp in the balanced
    # frame overflows; the relative residual of an infinite root is its
    # limit, 1, and the point fails on it as a ConvergenceError
    couplings = [
        1.0830065946919634,
        -1.2696243897996338,
        -1.3190326492066522,
        -0.10732511234496567,
        -0.5741673748452769,
    ]
    model = Hamiltonian.pair_product(BlockSpace(BINARY, 5), 2.0755956330683025, couplings)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConvergenceError) as err:
            analyze(model, GROUND_STATE_BETA)
    assert err.value.residual == 1.0


def test_perron_projection_limit():
    # V^20 / lambda0^20 converges to the outer product of the Perron pair
    beta, j, b = 1.0, 0.4, 1.0
    ts = build_transfer(nn_ising(NNParams(J=j, B=b, beta=beta)), beta)
    v = np.exp(ts.log_v)
    power = np.linalg.matrix_power(v, 20)
    projected = power / np.exp(20 * ts.log_lambda0)
    outer = np.outer(np.exp(ts.log_right), np.exp(ts.log_left))
    assert np.max(np.abs(projected - outer)) <= 1e-8


def test_partition_function_periodic_closed_form():
    beta = 1.0
    ts = build_transfer(nn_ising(NNParams(J=1.0, B=0.0, beta=beta)), beta)
    expected = (2.0 * np.cosh(1.0)) ** 2 + (2.0 * np.sinh(1.0)) ** 2
    assert partition_function(ts, 2, "periodic") == pytest.approx(np.log(expected), abs=1e-12)


def test_partition_function_counts_states_at_beta_zero():
    ts = build_transfer(nn_ising(NNParams(J=1.0, B=0.5, beta=0.0)), 0.0)
    assert partition_function(ts, 3, "periodic") == pytest.approx(np.log(8.0), abs=1e-12)


def test_trace_equals_eigenvalue_power_sum():
    # full eigensolve as the oracle for the trace identity, up to 16 blocks
    rng = np.random.default_rng(11)
    for n in (1, 2, 4):
        space = BlockSpace(BINARY, n)
        model = Hamiltonian.pair_product(
            space, rng.uniform(-1, 1), rng.uniform(-1, 1, size=n)
        )
        ts = build_transfer(model, 0.9)
        eigvals = np.linalg.eigvals(np.exp(ts.log_v))
        for n_blocks in range(1, 9):
            log_z = partition_function(ts, n_blocks, "periodic")
            by_eigs = np.sum(eigvals**n_blocks).real
            assert log_z == pytest.approx(np.log(by_eigs), rel=1e-9)


def test_asymptotic_log_partition_formulas():
    ts = build_transfer(nn_ising(NNParams(J=0.6, B=0.2, beta=1.0)), 1.0)
    assert asymptotic_log_partition(ts, 10, "periodic") == pytest.approx(10 * ts.log_lambda0)
    # open asymptotics reach the exact partition function at large size
    exact = partition_function(ts, 64, "open")
    approx = asymptotic_log_partition(ts, 64, "open")
    assert approx == pytest.approx(exact, rel=1e-8)


def test_asymptotic_ratio_improves_monotonically():
    rng = np.random.default_rng(5)
    model = nnn_ising(
        NNNParams(J1=rng.uniform(-1, 1), J2=rng.uniform(-1, 1), B=rng.uniform(-1, 1), beta=0.8)
    )
    ts = build_transfer(model, 0.8)
    gaps = []
    for n_blocks in (4, 8, 16, 32):
        exact = partition_function(ts, n_blocks, "open")
        approx = asymptotic_log_partition(ts, n_blocks, "open")
        gaps.append(abs(exact - approx))
    for earlier, later in zip(gaps, gaps[1:]):
        assert later <= earlier + 1e-13


def test_log_domain_survives_deep_cold_grid():
    # the diagram ranges at beta = 100 must stay finite end to end
    for j in (-1.5, 0.0, 1.5):
        for b in (-3.0, 0.0, 3.0):
            ts = build_transfer(nn_ising(NNParams(J=j, B=b, beta=100.0)), 100.0)
            assert np.all(np.isfinite(ts.log_v))
            assert np.isfinite(ts.log_lambda0)
            ts2 = build_transfer(
                nnn_ising(NNNParams(J1=j, J2=-j, B=b, beta=100.0)), 100.0
            )
            assert np.all(np.isfinite(ts2.log_v))
            assert np.isfinite(ts2.log_lambda0)


def test_ground_state_stand_in_resolves_gaps():
    ts = build_transfer(nn_ising(NNParams(J=1.0, B=0.0, beta=1e3)), 1e3)
    assert np.isfinite(ts.log_lambda0)
    assert ts.log_lambda0 == pytest.approx(1e3, rel=1e-12)


def test_subdominant_ratio_matches_closed_form():
    beta, j = 1.0, 0.9
    ts = build_transfer(nn_ising(NNParams(J=j, B=0.0, beta=beta)), beta)
    assert subdominant_ratio(ts) == pytest.approx(np.tanh(beta * j), abs=1e-12)


def test_beta_validation():
    from spinmech.errors import NumericDomainError

    with pytest.raises(NumericDomainError):
        build_transfer(nn_ising(NNParams(J=1.0, B=0.0, beta=1.0)), -1.0)
    with pytest.raises(NumericDomainError):
        build_transfer(nn_ising(NNParams(J=1.0, B=0.0, beta=1.0)), np.inf)


def test_large_space_power_iteration_path():
    # seven binary spins per block pushes past the dense-solve limit
    space = BlockSpace(BINARY, 7)
    model = Hamiltonian.pair_product(space, 0.1, [0.3, -0.2, 0.1, 0.05, -0.02, 0.01, 0.4])
    ts = build_transfer(model, 0.5)
    assert ts.size == 128
    assert ts.perron_residual <= 1e-12
    v = np.exp(ts.log_v)
    right = np.exp(ts.log_right)
    assert np.max(np.abs(v @ right - np.exp(ts.log_lambda0) * right)) <= 1e-10 * np.exp(
        ts.log_lambda0
    )
