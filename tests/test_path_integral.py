import copy
import itertools
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermiosc import grassmann, path_integral, selftest
from fermiosc.grassmann import (
    GeneratorRegistry,
    add,
    coefficient,
    monomial,
    mul,
    one,
    substitute,
)
from fermiosc.oscillator import BoundaryCondition, closed_form_partition
from fermiosc.path_integral import (
    GAUSSIAN_CAP,
    DiscretizedChain,
    PropagatorKernel,
    SliceScheme,
    close_boundary,
    contract_chain,
    partition_via_determinant,
)
from fermiosc.selftest import _max_coefficient_difference
from test_grassmann import integrated

AP = BoundaryCondition.ANTIPERIODIC
P = BoundaryCondition.PERIODIC
REGISTRY = contract_chain(DiscretizedChain(1, 1.0, 1.0)).element.registry
C0, CB, CB_STAR, CT, CT_STAR = (
    REGISTRY.labels.index(label) for label in ("c(0)", "c(b)", "c*(b)", "c(t)", "c*(t)"))

# every monomial on c(0), c(beta) and c*(beta), the generators a kernel holds
KERNEL_MASKS = [m for m in range(1 << REGISTRY.size) if not m & (1 << CT | 1 << CT_STAR)]


def boundary_kernel(q):
    """1 + q c*(beta) c(0) on the chain registry."""
    return PropagatorKernel(add(one(REGISTRY), monomial(REGISTRY, [CB_STAR, C0], q)))


def five_calls(a, b):
    """a, then b: relabel both kernels, weigh by 1 - c*(t) c(t), multiply and integrate."""
    weight = add(one(REGISTRY), monomial(REGISTRY, [CT_STAR, CT], -1.0))
    first, second = substitute(a, CB_STAR, CT_STAR), substitute(b, C0, CT)
    return integrated(mul(mul(first, weight), second), CT_STAR, CT)


def paper_form(beta, omega):
    """The N = 1 exact-scheme chain: the paper's kernel 1 + e^{-beta*omega} c*(beta) c(0)."""
    return contract_chain(DiscretizedChain(1, beta, omega))


class TestDiscretizedChain:
    def test_epsilon_times_steps_recovers_beta(self):
        chain = DiscretizedChain(7, 2.3, 1.0)
        assert abs(chain.epsilon * chain.n_steps - chain.beta) <= 1e-12

    @pytest.mark.parametrize("bc", [AP, P])
    def test_numpy_integer_steps_are_held_as_int(self, bc):
        # a numpy N would make first order's lambda**N overflow through numpy, with a warning
        chain = DiscretizedChain(np.int64(200), 1e6, 1.0, SliceScheme.FIRST_ORDER)
        assert type(chain.n_steps) is int
        assert type(chain._replace(n_steps=np.int32(3)).n_steps) is int
        with pytest.raises(ArithmeticError):
            partition_via_determinant(chain, bc)


class TestStepKernel:
    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_free_overlap(self, n_steps):
        # at beta = 0 each slice, and so the chain, is the overlap 1 + c* c'
        kernel = contract_chain(DiscretizedChain(n_steps, 0.0, 1.0))
        assert (kernel.coeff_id, kernel.coeff_prop) == (1.0, 1.0)

    def test_first_order_coefficient(self):
        chain = DiscretizedChain(1, 1.0, 0.5, SliceScheme.FIRST_ORDER)
        assert chain.step_coefficient == 0.5

    def test_exact_coefficient(self):
        chain = DiscretizedChain(1, math.log(2.0), 1.0)
        assert chain.step_coefficient == pytest.approx(0.5, rel=1e-15)


class TestContractChain:
    def test_first_order_two_steps(self):
        # lambda = 1/2, so coeff_prop is held to 1/4
        assert selftest._route_accuracy((2, 1.0, 1.0, SliceScheme.FIRST_ORDER)) <= 1.0

    def test_prints_like_the_paper_form(self):
        chain_kernel = contract_chain(DiscretizedChain(4, 1.0, 1.0)).element
        assert repr(chain_kernel) == repr(paper_form(1.0, 1.0).element)

    def test_coefficients_compare_as_floats(self):
        chain = DiscretizedChain(4, 1.0, 1.0)
        element = contract_chain(chain).element
        assert _max_coefficient_difference(element, paper_form(1.0, 1.0).element) == 0.0
        assert element == contract_chain(chain).element
        assert coefficient(element, [CB_STAR, C0]) == math.exp(-1.0)

    def test_pickled_kernel_keeps_its_digits(self):
        kernel = contract_chain(DiscretizedChain(8, 1e-12, 1.0))
        copied = pickle.loads(pickle.dumps(kernel))
        assert copied == kernel
        assert close_boundary(copied, P) == close_boundary(kernel, P)

    def test_underflowed_coefficient_is_dropped(self):
        kernel = contract_chain(DiscretizedChain(8, 800.0, 1.0))
        assert list(kernel.element.terms) == [0]
        assert kernel.coeff_prop == 0.0

    @pytest.mark.parametrize("n_steps", [1, 2, 7, 64, 10**6])
    def test_compositions_grow_with_log_steps(self, monkeypatch, n_steps):
        compose = path_integral._compose
        calls = []

        def counting(a, b):
            calls.append(None)
            return compose(a, b)

        monkeypatch.setattr(path_integral, "_compose", counting)
        contract_chain(DiscretizedChain(n_steps, 1.0, 1.0))
        assert len(calls) <= 2 * (n_steps.bit_length() - 1)

    def test_composition_is_the_five_call_form_to_the_bit(self, monkeypatch):
        # the tabulated product must give the five-call form's terms, hex and log
        chains = [DiscretizedChain(*point) for point in selftest._ACCURACY_GRID]
        traced = [contract_chain(chain).element.terms for chain in chains]
        monkeypatch.setattr(path_integral, "_compose", five_calls)
        for chain, got in zip(chains, traced):
            want = contract_chain(chain).element.terms
            assert list(got) == list(want), chain
            assert [c.hex() for c in got.values()] == [c.hex() for c in want.values()], chain
            prop = 1 << CB_STAR | 1 << C0
            if prop in want:
                assert got[prop].log == want[prop].log, chain

    @pytest.mark.parametrize("mb", KERNEL_MASKS)
    @pytest.mark.parametrize("ma", KERNEL_MASKS)
    def test_every_table_entry_is_the_five_call_form(self, ma, mb):
        # unit monomials on c(0), c(beta), c*(beta): each reads one entry of the table
        a = grassmann.GrassmannElement(REGISTRY, {ma: 0.75})
        b = grassmann.GrassmannElement(REGISTRY, {mb: -1.25})
        got, want = path_integral._compose(a, b).terms, five_calls(a, b).terms
        assert list(got) == list(want)
        assert [c.hex() for c in got.values()] == [c.hex() for c in want.values()]
        assert [type(c) for c in got.values()] == [type(c) for c in want.values()]

    @pytest.mark.parametrize("n_steps", [1, 2, 7, 64, 10**6])
    def test_one_substitute_and_one_element_per_composition(self, monkeypatch, n_steps):
        # the structure of the chain, not its timing: no other public engine
        # call, and each composition builds only its traced product
        chain = DiscretizedChain(n_steps, 1.0, 1.0)
        want = contract_chain(chain).element.terms

        def refuse(*args):
            raise AssertionError("contract_chain called a public engine function")

        for name in ("mul", "add", "monomial", "one"):
            monkeypatch.setattr(path_integral, name, refuse, raising=False)
        calls = {"substitute": 0, "_compose": 0, "_build": 0}

        def counting(name, f):
            def counted(*args):
                calls[name] += 1
                return f(*args)
            return counted

        monkeypatch.setattr(path_integral, "substitute", counting("substitute", substitute))
        compose = path_integral._compose
        monkeypatch.setattr(path_integral, "_compose", counting("_compose", compose))
        build = counting("_build", grassmann._build)
        monkeypatch.setattr(grassmann, "_build", build)
        monkeypatch.setattr(path_integral, "_build", build, raising=False)
        got = contract_chain(chain).element.terms
        assert list(got) == list(want)
        assert [c.hex() for c in got.values()] == [c.hex() for c in want.values()]
        prop = 1 << CB_STAR | 1 << C0
        assert got[prop].log == want[prop].log
        assert calls["substitute"] == 1
        assert calls["_build"] == calls["_compose"] + 1

    @pytest.mark.parametrize(
        "q",
        [
            path_integral._SignedLog(*path_integral._log_step(DiscretizedChain(8, 1.0, 1.0))),
            path_integral._SignedLog(*path_integral._log_step(
                DiscretizedChain(1, 3.0, 1.0, SliceScheme.FIRST_ORDER))),
            math.exp(-1.0),
            path_integral._SignedLog(1.0, -800.0),
        ],
        ids=["signed-log", "negative-signed-log", "float", "underflowed"],
    )
    def test_slice_kernel_is_the_four_call_form_to_the_bit(self, q):
        got = path_integral._kernel(q).terms
        want = add(one(REGISTRY), substitute(monomial(REGISTRY, [CB_STAR, C0]), C0, C0, q)).terms
        assert list(got) == list(want)
        assert [c.hex() for c in got.values()] == [c.hex() for c in want.values()]
        assert [type(c) for c in got.values()] == [type(c) for c in want.values()]
        prop = 1 << CB_STAR | 1 << C0
        if isinstance(q, path_integral._SignedLog) and prop in want:
            assert got[prop].log == want[prop].log
        assert (prop in got) == bool(q)

    @pytest.mark.parametrize("scheme", list(SliceScheme))
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 64, 10**6])
    def test_coefficient_stays_a_signed_log(self, n_steps, scheme):
        # N = 1 is the slice kernel itself; beta*omega = 1 would make its first-order lambda 0
        kernel = contract_chain(DiscretizedChain(n_steps, 0.5, 1.0, scheme))
        q = kernel.element.terms[1 << CB_STAR | 1 << C0]
        assert type(q) is path_integral._SignedLog
        negated = -q
        assert type(negated) is path_integral._SignedLog and negated.log == q.log
        assert negated.hex() == (-float(q)).hex()
        for rebuilt in (copy.copy(q), pickle.loads(pickle.dumps(q))):
            assert type(rebuilt) is path_integral._SignedLog
            assert (rebuilt.hex(), rebuilt.log) == (q.hex(), q.log)

    def test_a_sum_keeps_its_value(self):
        # 1 - e^{-x} is -expm1(-x) itself, not read back through exp of its log
        q = path_integral._SignedLog(1.0, -5e-5)
        for total in (q + -1.0, -1.0 + q):
            assert total.hex() == math.expm1(-5e-5).hex()
            for rebuilt in (copy.copy(total), pickle.loads(pickle.dumps(total))):
                assert type(rebuilt) is path_integral._SignedLog
                assert (rebuilt.hex(), rebuilt.log) == (total.hex(), total.log)


@pytest.mark.parametrize(
    "element, message",
    [
        (monomial(REGISTRY, [C0]), "unexpected monomials"),
        (add(one(REGISTRY), monomial(REGISTRY, [CB_STAR, CT])), "unexpected monomials"),
        (one(GeneratorRegistry(["c", "c*"])), "another generator registry"),
    ],
    ids=["stray-c0", "stray-cb-star-ct", "foreign-registry"],
)
def test_propagator_kernel_validates_element(element, message):
    with pytest.raises(ValueError, match=message):
        PropagatorKernel(element)


@pytest.mark.parametrize("route", [
    lambda bc: closed_form_partition(1.0, 1.0, bc),
    lambda bc: close_boundary(paper_form(1.0, 1.0), bc),
    lambda bc: partition_via_determinant(DiscretizedChain(1, 1.0, 1.0), bc),
], ids=["closed_form_partition", "close_boundary", "partition_via_determinant"])
def test_a_bc_that_is_not_a_member_is_refused(route):
    # a string is not a member: each entry point used to read "antiperiodic" as periodic
    for bc in ("antiperiodic", "periodic", None):
        with pytest.raises(ValueError, match="bc must be a BoundaryCondition"):
            route(bc)


class TestPaperFormKernel:
    """The paper's kernel, as the one-slice exact chain gives it."""

    def test_propagation_coefficient(self):
        # the paper's e^{-beta*omega}, as math.exp gives it
        kernel = paper_form(math.log(2.0), 1.0)
        assert kernel.coeff_prop == math.exp(-math.log(2.0))

    def test_exponent_squares_to_zero(self):
        exponent = monomial(REGISTRY, [CB_STAR, C0], math.exp(-1.0))
        assert mul(exponent, exponent).is_zero
        assert add(one(REGISTRY), exponent) == paper_form(1.0, 1.0).element


class TestCloseBoundary:
    # at N = 1 the exact-scheme closure is the closed form to the bit
    def test_antiperiodic_value(self):
        assert close_boundary(paper_form(1.0, 1.0), AP) == closed_form_partition(1.0, 1.0, AP)

    def test_periodic_value(self):
        assert close_boundary(paper_form(1.0, 1.0), P) == closed_form_partition(1.0, 1.0, P)

    def test_zero_beta_counts_states(self):
        kernel = paper_form(0.0, 1.0)
        assert close_boundary(kernel, AP) == 2.0
        assert close_boundary(kernel, P) == 0.0

    def test_bare_identity_kernel(self):
        kernel = PropagatorKernel(one(REGISTRY))
        assert [close_boundary(kernel, bc) for bc in (AP, P)] == [1.0, 1.0]

    def test_closure_is_the_three_call_form_to_the_bit(self):
        # substitute, weigh by 1 - c*(beta) c(beta) and integrate the boundary
        # pair: the traced product must give the same float, hex for hex
        weight = add(one(REGISTRY), monomial(REGISTRY, [CB_STAR, CB], -1.0))
        points = [*selftest._ACCURACY_GRID, (8, 0.0, 1.0, SliceScheme.EXACT),
                  (8, 800.0, 1.0, SliceScheme.EXACT)]
        for point in points:
            kernel = contract_chain(DiscretizedChain(*point))
            for bc, factor in ((AP, -1.0), (P, 1.0)):
                closed = substitute(kernel.element, C0, CB, factor)
                want = float(integrated(mul(closed, weight), CB_STAR, CB).scalar_part())
                assert close_boundary(kernel, bc).hex() == want.hex(), (point, bc)

    @pytest.mark.parametrize("beta, omega", [*selftest._GRID, (0.0, 1.0)])
    def test_closed_integrand_is_the_papers_density_operator(self, beta, omega):
        # the paper's rho_F(beta) = c*(beta)c(beta) +- c*(beta)c(beta) e^{-beta*omega}:
        # e^{-c* c} K(c*, -+c) at N = 1 is 1 + Z-+ c(beta)c*(beta), written in the
        # order this measure integrates to +1, and its constant integrates to zero
        weight = add(one(REGISTRY), monomial(REGISTRY, [CB_STAR, CB], -1.0))
        for bc, factor in ((AP, -1.0), (P, 1.0)):
            closed = substitute(paper_form(beta, omega).element, C0, CB, factor)
            z = closed_form_partition(beta, omega, bc)
            assert mul(closed, weight) == add(one(REGISTRY), monomial(REGISTRY, [CB, CB_STAR], z))

    @given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    def test_linear_in_kernel_coefficient(self, q):
        # the closure's one sum, rounded once
        kernel = boundary_kernel(q)
        assert close_boundary(kernel, AP) == 1.0 + q
        assert close_boundary(kernel, P) == 1.0 - q


def test_raw_contraction_pins_coefficients():
    # the oracle holds coeff_id to 1.0 exactly and coeff_prop to lambda^4
    for scheme in SliceScheme:
        assert selftest._route_accuracy((4, 1.0, 1.0, scheme)) <= 1.0


def _dense(chain, bc):
    """The float action matrix as rows, filled from ``_action_columns``."""
    n = chain.n_steps
    m = [[0.0] * n for _ in range(n)]
    for j, column in enumerate(path_integral._action_columns(n, chain.step_coefficient, bc)):
        for i, value in column:
            m[i][j] = value
    return m


class TestActionMatrix:
    def test_structure(self):
        chain = DiscretizedChain(4, 1.0, 1.0)
        m = _dense(chain, AP)
        lam = chain.step_coefficient
        assert np.array_equal(np.diag(m), np.ones(4))
        assert np.array_equal(np.diag(m, k=-1), [-lam] * 3)
        assert m[0][3] == lam

    def test_first_order_closed_form(self):
        chain = DiscretizedChain(2, 1.0, 1.0, SliceScheme.FIRST_ORDER)
        assert np.linalg.det(_dense(chain, AP)) == pytest.approx(1.25, abs=1e-15)

    def test_zero_mode_at_zero_beta(self):
        assert partition_via_determinant(DiscretizedChain(3, 0.0, 1.0), P) == 0.0
        for n_steps in (1, 2, 4, 8):
            assert partition_via_determinant(DiscretizedChain(n_steps, 0.0, 1.0), AP) == 2.0

    @pytest.mark.parametrize("n_steps", range(1, GAUSSIAN_CAP + 1))
    def test_one_statement_of_the_matrix(self, n_steps):
        # lambda = e^{-x} or 1 - x at x = 0, 1 (first-order lambda = 0) and 3 (lambda < 0)
        betas = (0.0, n_steps, 3.0 * n_steps)
        for beta, scheme, bc in itertools.product(betas, SliceScheme, (AP, P)):
            chain = DiscretizedChain(n_steps, beta, 1.0, scheme)
            columns = path_integral._action_columns(n_steps, chain.step_coefficient, bc)
            m = _dense(chain, bc)
            # each column is the dense matrix's nonzero entries, in row order
            assert columns == [[(i, row[j]) for i, row in enumerate(m) if row[j]]
                               for j in range(n_steps)]
            assert grassmann._gaussian_columns(columns) == pytest.approx(
                np.linalg.det(m), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("n_steps", range(1, GAUSSIAN_CAP + 1))
    def test_both_bcs_share_one_expansion(self, n_steps):
        # lambda = 1, lambda = 0 in first order and lambda < 0, then the selftest's grid;
        # each bc's value from one expansion is its own expansion's, in either bc order
        points = [(beta, 1.0) for beta in (0.0, n_steps, 3.0 * n_steps)] + list(selftest._GRID)
        for (beta, omega), scheme in itertools.product(points, SliceScheme):
            chain = DiscretizedChain(n_steps, beta, omega, scheme)
            signed = path_integral._SignedLog(*path_integral._log_step(chain))
            for lam, bcs in itertools.product((chain.step_coefficient, signed), ((AP, P), (P, AP))):
                gaussian = path_integral._ActionGaussian(n_steps, lam)
                for bc in bcs:
                    columns = path_integral._action_columns(n_steps, lam, bc)
                    assert repr(gaussian(bc)) == repr(grassmann._gaussian_columns(columns)), (
                        beta, omega, scheme, type(lam).__name__, bc)

    def test_first_order_four_steps(self):
        chain = DiscretizedChain(4, 1.0, 1.0, SliceScheme.FIRST_ORDER)
        assert partition_via_determinant(chain, AP) == 1.31640625
        assert partition_via_determinant(chain, P) == 0.68359375


class TestDeterminantRoute:
    """partition_via_determinant evaluates 1 +- lambda^N without a dense matrix."""

    # the oracle holds closed_form_partition, too, to the N-step model
    @pytest.mark.parametrize("n_steps", [*range(1, 65), 2048, 10**6])
    def test_exact_scheme_matches_closed_form(self, n_steps):
        for beta_omega in np.geomspace(1e-12, 700.0, 15):
            point = (n_steps, float(beta_omega), 1.0, SliceScheme.EXACT)
            assert selftest._route_accuracy(point) <= 1.0, point

    # in the last point x = beta/2048 is a tie of 1 - x, so lambda holds 1 - x
    # only to half an ulp, which powering 2048 times would carry past 1e-13,
    # a hundred times the determinant's bound in the oracle
    @pytest.mark.parametrize(
        "n_steps,beta_omega",
        [(n, bw) for n in (1, 2, 7, 9, 64, 2048) for bw in (1e-12, 1e-6, 0.3, 1, 5, 30, 700)]
        + [(2048, 2048 * (round(3.39e-4 * 2.0**53) + 0.5) / 2.0**53)],
    )
    def test_first_order_matches_exact_power(self, n_steps, beta_omega):
        assert selftest._route_accuracy((n_steps, beta_omega, 1.0, SliceScheme.FIRST_ORDER)) <= 1.0

    @given(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.integers(min_value=1, max_value=64),
        st.sampled_from(list(SliceScheme)),
        st.sampled_from(list(BoundaryCondition)),
    )
    @settings(max_examples=60)
    def test_matches_dense_determinant(self, beta, omega, n_steps, scheme, bc):
        chain = DiscretizedChain(n_steps, beta, omega, scheme)
        z = partition_via_determinant(chain, bc)
        dense = np.linalg.det(_dense(chain, bc))
        assert abs(dense - z) <= 1e-11 * max(1.0, abs(z))

    def test_exact_zero_is_positive(self):
        # lambda = -1: lambda^N = +1 for even N, -1 for odd N
        for n_steps, bc in ((4, P), (3, AP)):
            chain = DiscretizedChain(n_steps, 2.0 * n_steps, 1.0, SliceScheme.FIRST_ORDER)
            assert repr(partition_via_determinant(chain, bc)) == "0.0"
        assert repr(partition_via_determinant(DiscretizedChain(10, 0.0, 1.0), P)) == "0.0"

    def test_no_dense_matrix_and_the_kernel_only_up_to_the_cap(self, monkeypatch):
        sizes = []
        kernel = path_integral._ActionGaussian.__call__
        monkeypatch.setattr(path_integral._ActionGaussian, "__call__",
                            lambda self, bc: sizes.append(self.n) or kernel(self, bc))
        # literals, not GAUSSIAN_CAP: the README and perfbench's GAUSS_STEPS assume a cap of 8
        for n_steps in (1, 8, 9):
            partition_via_determinant(DiscretizedChain(n_steps, 1.0, 1.0), AP)
        assert sizes == [1, 8]


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
@pytest.mark.parametrize("n_steps", [2, 3, 7, 1000])
def test_first_order_overflow_threshold_in_both_routes(n_steps, side):
    # |lambda^N| = (x - 1)^N reaches the largest double at x - 1 = DBL_MAX^(1/N)
    x = 1.0 + sys.float_info.max ** (1.0 / n_steps) * (1.0 + side * 1e-12)
    chain = DiscretizedChain(n_steps, n_steps * x, 1.0, SliceScheme.FIRST_ORDER)
    routes = (lambda bc: close_boundary(contract_chain(chain), bc),
              lambda bc: partition_via_determinant(chain, bc))
    for route, bc in itertools.product(routes, (AP, P)):
        if side < 0:
            assert math.isfinite(route(bc))
        else:
            with pytest.raises(ArithmeticError):
                route(bc)


@pytest.mark.parametrize("beta_omega", [1e-12, 1e-6])
def test_periodic_closed_form_keeps_digits(beta_omega):
    # Z+ = 1 - e^{-beta*omega} cancels here unless it is computed without the subtraction
    assert selftest._route_accuracy((1, beta_omega, 1.0, SliceScheme.EXACT)) <= 1.0


# off the catalogue's accuracy grid: random points
@given(
    st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(list(SliceScheme)),
)
@settings(max_examples=60)
def test_routes_agree(beta, omega, n_steps, scheme):
    # both routes, and the Gaussian, against one model, for both boundary conditions
    assert selftest._route_accuracy((n_steps, beta, omega, scheme)) <= 1.0
