"""Correctness checks of the benchmark, computed apart from the package.

Every reference here is rebuilt from the model parameters alone: spin
values, couplings and field go pair by pair into block energies, and the
transfer matrix, its dominant eigenvalue and the NN closed forms are
evaluated without calling into ``spinmech``. The package's own results
only enter as the values under test (and, for the identities, as the
chain whose entropy they state).

Each check returns a list of human-readable faults; an empty list passes.
"""

import math

import mpmath
import numpy as np

LN2 = math.log(2.0)
# Mirrors the package's documented tolerances: rows closer than the merge
# tolerance form one causal state, matrix entries at or below the support
# floor are absent edges.
MERGE_TOL = 1e-9
SUPPORT_FLOOR = 1e-12
ROUNDING_SLACK = 1e-12

# Point-level tolerances from the benchmark's acceptance criteria.
CLOSED_FORM_TOL = 1e-9
IDENTITY_TOL_NATS = 1e-9
AGGREGATION_TOL = 1e-9
EIGEN_TOL = 1e-9
RESIDUAL_LIMIT = 1e-10


# ----------------------------------------------------------------------
# model energies, pair by pair
# ----------------------------------------------------------------------


def block_spins(n: int) -> np.ndarray:
    """(2**n, n) spin values of binary blocks, most significant spin first,
    symbol 0 = -1 and symbol 1 = +1."""
    codes = np.arange(2**n)
    bits = (codes[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    return 2.0 * bits - 1.0


def block_energies(field: float, j_by_distance) -> tuple[np.ndarray, np.ndarray]:
    """Intra-block energies x and cross energies y of a product-coupling
    chain with energy -field*sum(s) - sum_d J_d * sum(s_i s_{i+d}).

    Every pair of sites in two adjacent blocks is visited once.
    """
    j = [float(v) for v in j_by_distance]
    n = len(j)
    s = block_spins(n)
    x = -float(field) * s.sum(axis=1)
    for a in range(n):
        for b in range(a + 1, n):
            x = x - j[b - a - 1] * s[:, a] * s[:, b]
    size = s.shape[0]
    y = np.zeros((size, size))
    for a in range(n):
        for b in range(n):
            distance = n - a + b
            if distance <= n:
                y = y - j[distance - 1] * np.outer(s[:, a], s[:, b])
    return x, y


def log_transfer(field: float, j_by_distance, beta: float) -> np.ndarray:
    """log V[p, q] = -beta * (x_p / 2 + y_pq + x_q / 2)."""
    x, y = block_energies(field, j_by_distance)
    return -beta * (0.5 * x[:, None] + y + 0.5 * x[None, :])


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=1)
    return m + np.log(np.exp(a - m[:, None]).sum(axis=1))


def perron_bracket(log_v: np.ndarray, steps: int = 64) -> tuple[float, float]:
    """Collatz-Wielandt enclosure [lo, hi] of log(lambda0) of exp(log_v).

    For a positive matrix and any positive vector x, min_i (Vx)_i / x_i and
    max_i (Vx)_i / x_i bracket the Perron root. x starts from a LAPACK
    eigenvector of the shifted matrix and is refined by log-domain power
    steps, which restore the relative accuracy of deeply graded entries.
    """
    w = np.exp(log_v - log_v.max())
    vals, vecs = np.linalg.eig(w)
    k = int(np.argmax(vals.real))
    with np.errstate(divide="ignore"):
        log_x = np.log(np.abs(vecs[:, k].real))
    for _ in range(steps):
        log_x = _logsumexp_rows(log_v + log_x[None, :])
        log_x = log_x - log_x.max()
    ratios = _logsumexp_rows(log_v + log_x[None, :]) - log_x
    return float(ratios.min()), float(ratios.max())


# ----------------------------------------------------------------------
# NN closed forms in mpmath
# ----------------------------------------------------------------------


def nn_reference(j: float, b: float, beta: float, dps: int = 40) -> dict:
    """log(lambda0), C_mu, h_mu and E_mu of the NN chain in closed form.

    V = [[e^{beta(J-B)}, e^{-beta J}], [e^{-beta J}, e^{beta(J+B)}]] is
    symmetric, so the left and right Perron vectors coincide and the
    stationary law is r_i^2 up to normalization. The eigenvector ratio is
    taken from the row whose diagonal is smaller, which never cancels.
    Classes and causal states follow the package's documented conventions:
    edges at or below the support floor are absent, and rows that agree
    within the merge tolerance on the same support are one state.
    """
    with mpmath.workdps(dps):
        beta, j, b = mpmath.mpf(beta), mpmath.mpf(j), mpmath.mpf(b)
        a = mpmath.exp(beta * (j - b))
        d = mpmath.exp(beta * (j + b))
        off = mpmath.exp(-beta * j)
        half = (a - d) / 2
        root = mpmath.sqrt(half * half + off * off)
        lam = (a + d) / 2 + root
        if d >= a:
            ratio = (root - half) / off  # (lam - a) / off
        else:
            ratio = off / (root + half)  # off / (lam - d)
        r = [mpmath.mpf(1), ratio]
        v = [[a, off], [off, d]]
        p = [[v[i][k] * r[k] / (lam * r[i]) for k in range(2)] for i in range(2)]
        mass = [r[0] ** 2, r[1] ** 2]

        def h_row(row):
            return -sum(q * mpmath.log(q, 2) for q in row if q > 0)

        def entropy(probs):
            return -sum(q * mpmath.log(q, 2) for q in probs if q > 0)

        floor = mpmath.mpf(SUPPORT_FLOOR)
        if p[0][1] > floor and p[1][0] > floor:
            total = mass[0] + mass[1]
            pi = [mass[0] / total, mass[1] / total]
            h = pi[0] * h_row(p[0]) + pi[1] * h_row(p[1])
            h_pi = entropy(pi)
            # two blocks are one causal state when their rows agree within
            # the merge tolerance and allow the same successors
            distinct = max(abs(p[0][0] - p[1][0]), abs(p[0][1] - p[1][1])) > MERGE_TOL or [
                q > floor for q in p[0]
            ] != [q > floor for q in p[1]]
            c = h_pi if distinct else mpmath.mpf(0)
            e = h_pi - h
        else:
            # every recurrent class is a single absorbing block: no
            # uncertainty, no memory
            c = h = e = mpmath.mpf(0)
        return {
            "log_lambda0": float(mpmath.log(lam)),
            "C_mu": float(c),
            "h_mu": float(h),
            "E_mu": float(e),
        }


def check_nn_reference(params: dict, row: dict) -> list[str]:
    """A sweep row against the closed-form solution at its parameters."""
    ref = nn_reference(params["J"], params["B"], params["beta"])
    faults = []
    for key, want in ref.items():
        got = float(row[key])
        if not abs(got - want) <= CLOSED_FORM_TOL:
            faults.append(f"{key} {got!r} != closed form {want!r}")
    return faults


def check_nn_row_bounds(row: dict) -> list[str]:
    """0 <= E_mu <= C_mu <= 1, 0 <= h_mu <= 1, certified residual."""
    faults = []
    c, h, e = float(row["C_mu"]), float(row["h_mu"]), float(row["E_mu"])
    eps = ROUNDING_SLACK
    if row.get("status") != "ok":
        faults.append(f"status {row.get('status')!r}")
    if not (-eps <= e <= c + eps and c <= 1.0 + eps):
        faults.append(f"needs 0 <= E_mu <= C_mu <= 1, got E_mu={e!r} C_mu={c!r}")
    if not (-eps <= h <= 1.0 + eps):
        faults.append(f"needs 0 <= h_mu <= 1, got {h!r}")
    if not float(row["max_residual"]) <= RESIDUAL_LIMIT:
        faults.append(f"max_residual {row['max_residual']!r} > {RESIDUAL_LIMIT}")
    return faults


def rows_identical(a: dict, b: dict) -> bool:
    """Bit-for-bit equality of two sweep rows (NaN equals NaN)."""
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, float) or isinstance(y, float):
            if not isinstance(x, float) or not isinstance(y, float):
                return False
            if x.hex() != y.hex():
                return False
        elif x != y:
            return False
    return True


CSV_COLUMNS = [
    "log_lambda0",
    "C_mu",
    "h_mu",
    "E_mu",
    "E_paper",
    "C_mu_spin",
    "h_mu_spin",
    "E_spin",
    "n_states",
    "n_classes",
    "max_residual",
    "status",
]


def check_csv(text: str, names: list[str], rows: list[dict]) -> list[str]:
    """The sweep CSV (in bits) carries every row exactly, in order.

    Columns are the documented ones; float cells must parse back to the
    row's value bit for bit, so a cell changed in its last digit shows.
    """
    lines = text.split("\n")
    if lines[-1] != "":
        return ["CSV does not end with a newline"]
    lines = lines[:-1]
    header = ["index"] + names + CSV_COLUMNS
    if lines[0].split(",") != header:
        return [f"CSV header {lines[0]!r} != {','.join(header)!r}"]
    if len(lines) - 1 != len(rows):
        return [f"CSV has {len(lines) - 1} rows, sweep returned {len(rows)}"]
    faults = []
    for index, (line, row) in enumerate(zip(lines[1:], rows)):
        cells = line.split(",")
        if len(cells) != len(header) or cells[0] != str(index):
            faults.append(f"CSV row {index} malformed: {line!r}")
            continue
        for column, cell in zip(header[1:], cells[1:]):
            want = row[column]
            if column == "status":
                same = cell == want
            elif column in ("n_states", "n_classes"):
                same = cell == str(int(want))
            else:
                same = float(cell).hex() == float(want).hex()
            if not same:
                faults.append(f"CSV row {index} column {column}: {cell!r} != {want!r}")
    return faults


# ----------------------------------------------------------------------
# identities of a general point
# ----------------------------------------------------------------------


def _class_chain(matrix: np.ndarray, members: np.ndarray) -> np.ndarray:
    sub = matrix[np.ix_(members, members)]
    return sub / sub.sum(axis=1, keepdims=True)


def check_point_identities(
    field: float, j_by_distance, beta: float, result
) -> list[str]:
    """Identities every analysed point must satisfy.

    * Per recurrent class, h_mu * ln2 = log(lambda0) + beta * sum_ij
      pi_i P_ij (x_i + y_ij), with x, y rebuilt pair by pair: it holds for
      every chain of the form P = V r / (lambda r) and ties the machine's
      entropy to the transfer eigenvalue through the energies.
    * |h_mu - n * h_mu_spin| <= 1e-9 (block and spin machines aggregate).
    * E_mu >= -1e-12 and C_mu <= log2(n_states) + 1e-12.
    """
    x, y = block_energies(field, j_by_distance)
    n = len(j_by_distance)
    chain = result.chain
    faults = []
    for index, members in enumerate(chain.classes):
        sub = _class_chain(chain.matrix, members)
        pi = chain.class_pis[index]
        energy = float(np.sum(pi[:, None] * sub * (x[members][:, None] + y[np.ix_(members, members)])))
        want = result.log_lambda0 + beta * energy
        got = result.block.machines[index].h_mu * LN2
        if not abs(got - want) <= IDENTITY_TOL_NATS:
            faults.append(
                f"class {index}: h_mu*ln2 {got!r} vs log_lambda0 + beta*<x+y> {want!r} "
                f"(off by {got - want:.3e} nats)"
            )
    gap = abs(result.h_mu - n * result.h_mu_spin)
    if not gap <= AGGREGATION_TOL:
        faults.append(f"|h_mu - {n}*h_mu_spin| = {gap:.3e}")
    if not result.e_mu >= -ROUNDING_SLACK:
        faults.append(f"E_mu {result.e_mu!r} < 0")
    if not result.c_mu <= math.log2(result.n_states) + ROUNDING_SLACK:
        faults.append(f"C_mu {result.c_mu!r} > log2({result.n_states})")
    return faults


def perron_root_mp(log_v: np.ndarray, guard_digits: int = 60) -> float:
    """log(lambda0) from mpmath's dense eigensolver.

    The working precision covers the matrix's whole dynamic range plus
    ``guard_digits``: with fewer digits the smallest entries vanish next to
    the largest and the solver can return a subdominant root.
    """
    size = log_v.shape[0]
    dps = guard_digits + int(float(np.ptp(log_v)) / math.log(10.0))
    with mpmath.workdps(dps):
        v = mpmath.matrix(size, size)
        for i in range(size):
            for k in range(size):
                v[i, k] = mpmath.exp(mpmath.mpf(float(log_v[i, k])))
        eigvals = mpmath.eig(v, left=False, right=False)
        return float(mpmath.log(max(mpmath.re(e) for e in eigvals)))


def check_eigenvalue(field: float, j_by_distance, beta: float, log_lambda0: float) -> list[str]:
    """log_lambda0 is the Perron root of the benchmark's own transfer matrix.

    The Collatz-Wielandt enclosure decides when it is tight. Periodic
    ground states (NNN at large beta) converge too slowly for it; up to
    sixteen blocks those go to mpmath's dense eigensolver instead.
    """
    log_v = log_transfer(field, j_by_distance, beta)
    lo, hi = perron_bracket(log_v)
    if hi - lo <= EIGEN_TOL:
        if not lo - EIGEN_TOL <= log_lambda0 <= hi + EIGEN_TOL:
            return [f"log_lambda0 {log_lambda0!r} outside Perron enclosure [{lo!r}, {hi!r}]"]
        return []
    if log_v.shape[0] > 16:
        return [f"own Perron enclosure too wide ({lo!r}, {hi!r}); cannot certify"]
    want = perron_root_mp(log_v)
    if not abs(log_lambda0 - want) <= EIGEN_TOL:
        return [f"log_lambda0 {log_lambda0!r} != Perron root {want!r} (mpmath)"]
    return []


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


def check_entropy_estimate(estimate, h_spin: float) -> list[str]:
    """Monte Carlo estimate within max(3 stderr, 1e-3) and 0.01 of analytic."""
    off = abs(estimate.value - h_spin)
    limit = max(3.0 * estimate.stderr, 1e-3)
    faults = []
    if not off <= limit:
        faults.append(f"estimate {estimate.value!r} off analytic {h_spin!r} by {off:.3e} > {limit:.3e}")
    if not off <= 0.01:
        faults.append(f"estimate {estimate.value!r} off analytic {h_spin!r} by {off:.3e} > 0.01")
    return faults


def check_same_sequence(first_digest: str, again_digest: str) -> list[str]:
    """A redraw with the same seed has the first draw's digest."""
    if again_digest != first_digest:
        return ["same seed drew a different sequence"]
    return []
