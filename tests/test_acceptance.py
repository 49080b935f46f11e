"""Acceptance gate: one test per shipping criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from netpricing import (CapacitySharing, CpPowerDemand, CustomDemand,
                        CustomGain, ExponentialGain, MarketModel,
                        MM1Queue, ReciprocalGain, UserPowerDemand,
                        baseline_model, comparative_statics, emit_csv,
                        evaluate_objectives, fixed_point_equilibrium, grid_optimize,
                        optimal_price_sensitivity, optimize_profit,
                        optimize_welfare, parse_config, run_sweep,
                        solve_equilibrium)
from netpricing.equilibrium import solve_for_demands
from netpricing.sensitivity import elasticity_slope_vs_congestion
from references import finite_difference, gain_elasticity

GAINS = {"reciprocal": ReciprocalGain(), "exponential": ExponentialGain()}
CONGESTIONS = {"sharing": CapacitySharing(), "mm1": MM1Queue()}


def _ok(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion:2d}] PASS  {message}")


def _random_builtin_model(rng) -> MarketModel:
    return baseline_model(
        gain=GAINS["reciprocal"] if rng.random() < 0.5 else GAINS["exponential"],
        congestion=CONGESTIONS["sharing"] if rng.random() < 0.5 else CONGESTIONS["mm1"],
        alpha=float(rng.uniform(0.5, 2.0)),
        beta=float(rng.uniform(0.5, 2.0)),
        capacity=float(rng.uniform(0.5, 5.0)),
        sensitivity=float(rng.uniform(0.5, 3.0)),
    )


def worked_example_model(capacity: float) -> MarketModel:
    """m = 1-p, n = (1-q)^2, gain e^-phi, capacity sharing, cost 0.7."""
    return MarketModel(
        gain=ExponentialGain(),
        congestion=CapacitySharing(),
        user_demand=UserPowerDemand(alpha=1.0),
        cp_demand=CustomDemand(lambda q: (1.0 - q) ** 2,
                               slope_fn=lambda q: -2.0 * (1.0 - q),
                               surplus_fn=lambda q: (1.0 - q) ** 3 / 3.0),
        cost=0.7,
        capacity=capacity,
        sensitivity=math.e - 1.0,
    )


def video_like_model() -> MarketModel:
    """Rising-elasticity traffic profile under the M/M/1 law."""
    def value(phi, s):
        return np.exp(-s * (0.9 * (1.0 - np.exp(-6.0 * phi)) + 0.05 * phi))
    return MarketModel(
        gain=CustomGain(value),
        congestion=MM1Queue(),
        user_demand=UserPowerDemand(alpha=1.0),
        cp_demand=CpPowerDemand(beta=2.0),
        cost=0.7,
        capacity=2.1,
        sensitivity=1.0,
    )


# ---------------------------------------------------------------------------
# 1. equilibrium closed forms
# ---------------------------------------------------------------------------

def test_criterion_01_equilibrium_closed_forms():
    model = baseline_model(capacity=0.5)     # mn/mu = 2 at zero prices
    eq = solve_equilibrium(model, 0.0, 0.0)
    assert abs(eq.congestion - 1.0) <= 1e-10
    assert abs(eq.throughput - model.capacity) <= 1e-10

    mm1 = baseline_model(congestion=MM1Queue(), capacity=2.0)
    eq2 = solve_equilibrium(mm1, 0.0, 0.0)
    assert abs(eq2.congestion - 1.0 / math.sqrt(2.0)) <= 1e-10
    assert abs(eq2.throughput - (2.0 - math.sqrt(2.0))) <= 1e-10
    _ok(1, "closed-form equilibria reproduced to 1e-10 "
           f"(errors {abs(eq.congestion - 1):.1e}, "
           f"{abs(eq2.congestion - 1 / math.sqrt(2)):.1e})")


# ---------------------------------------------------------------------------
# 2. uniqueness: two independent solvers agree
# ---------------------------------------------------------------------------

def test_criterion_02_solver_agreement_on_random_models():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        model = _random_builtin_model(rng)
        p = float(rng.uniform(0.0, 0.8))
        q = float(rng.uniform(0.0, 0.8))
        phi_newton = solve_equilibrium(model, p, q).congestion
        phi_fixed = fixed_point_equilibrium(model, p, q)
        gap = abs(phi_newton - phi_fixed) / max(1.0, phi_newton)
        worst = max(worst, gap)
        assert gap <= 1e-10
    _ok(2, f"Newton and damped fixed point agree on 1000 random models "
           f"(worst relative gap {worst:.2e})")


# ---------------------------------------------------------------------------
# 3. demand-side elasticity identity and range
# ---------------------------------------------------------------------------

def test_criterion_03_throughput_elasticity_identity():
    rng = np.random.default_rng(103)
    h = 1e-5
    worst = 0.0
    for _ in range(400):
        model = _random_builtin_model(rng)
        p = float(rng.uniform(0.05, 0.6))
        q = float(rng.uniform(0.05, 0.6))
        eq = solve_equilibrium(model, p, q)
        assert 0.0 < eq.elasticity <= 1.0
        m, n = model.demands(p, q)

        def lam_scaled(mscale, nscale):
            _, lam, _, _ = solve_for_demands(model.gain, model.congestion,
                                             m * mscale, n * nscale,
                                             model.capacity, model.sensitivity)
            return lam

        lam0 = eq.throughput
        eps_m = (lam_scaled(1 + h, 1) - lam_scaled(1 - h, 1)) / (2 * h * lam0)
        eps_n = (lam_scaled(1, 1 + h) - lam_scaled(1, 1 - h)) / (2 * h * lam0)
        worst = max(worst, abs(eps_m - eps_n))
        assert abs(eps_m - eps_n) <= 1e-8

    free = solve_equilibrium(baseline_model(capacity=1e9), 0.1, 0.1)
    assert abs(free.elasticity - 1.0) <= 1e-3
    _ok(3, f"demand-side elasticities coincide (worst gap {worst:.2e}); "
           f"congestion-free limit 1 - eps = {1 - free.elasticity:.1e}")


# ---------------------------------------------------------------------------
# 4. analytic derivatives match finite differences, with predicted signs
# ---------------------------------------------------------------------------

def test_criterion_04_analytic_derivatives_and_signs():
    start = time.time()
    rng = np.random.default_rng(107)
    checked = 0
    for _ in range(1000):
        # concave demands keep the welfare-monotonicity premise in force
        model = baseline_model(
            gain=GAINS["reciprocal"] if rng.random() < 0.5 else GAINS["exponential"],
            congestion=CONGESTIONS["sharing"] if rng.random() < 0.5 else CONGESTIONS["mm1"],
            alpha=float(rng.uniform(0.4, 1.0)),
            beta=float(rng.uniform(1.0, 3.0)),
            capacity=float(rng.uniform(0.5, 4.0)),
            sensitivity=float(rng.uniform(0.5, 3.0)))
        p = float(rng.uniform(0.1, 0.7))
        q = float(rng.uniform(max(0.0, model.cost - p) + 0.02, 0.8))

        stat = comparative_statics(model, p, q)
        m, n = model.demands(p, q)
        assert stat.dphi_dm > 0 and stat.dlam_dm > 0
        assert stat.dphi_dn > 0 and stat.dlam_dn > 0
        assert stat.dphi_dmu < 0 and stat.dlam_dmu > 0
        assert stat.dphi_dp < 0 and stat.dlam_dp < 0
        assert stat.dphi_dq < 0 and stat.dlam_dq < 0

        def phi_lam(mscale=1.0, nscale=1.0, capacity=None):
            cap = capacity if capacity is not None else model.capacity
            f, l, _, _ = solve_for_demands(model.gain, model.congestion,
                                           m * mscale, n * nscale, cap,
                                           model.sensitivity)
            return f, l

        h = 1e-5
        fd_pairs = {
            ("dphi_dm", "dlam_dm"): tuple(
                (hi - lo) / (2 * h * m) for hi, lo in zip(phi_lam(mscale=1 + h),
                                                          phi_lam(mscale=1 - h))),
            ("dphi_dn", "dlam_dn"): tuple(
                (hi - lo) / (2 * h * n) for hi, lo in zip(phi_lam(nscale=1 + h),
                                                          phi_lam(nscale=1 - h))),
        }
        for (phi_name, lam_name), (fd_phi, fd_lam) in fd_pairs.items():
            assert getattr(stat, phi_name) == pytest.approx(fd_phi, rel=1e-4), phi_name
            assert getattr(stat, lam_name) == pytest.approx(fd_lam, rel=1e-4), lam_name
        assert stat.dphi_dmu == pytest.approx(
            finite_difference(lambda mu: phi_lam(capacity=mu)[0], model.capacity), rel=1e-4)
        assert stat.dlam_dmu == pytest.approx(
            finite_difference(lambda mu: phi_lam(capacity=mu)[1], model.capacity), rel=1e-4)
        assert stat.dphi_dp == pytest.approx(finite_difference(
            lambda x: solve_equilibrium(model, x, q).congestion, p, rel_step=1e-6), rel=1e-4)
        assert stat.dlam_dp == pytest.approx(finite_difference(
            lambda x: solve_equilibrium(model, x, q).throughput, p, rel_step=1e-6), rel=1e-4)
        assert stat.dphi_dq == pytest.approx(finite_difference(
            lambda x: solve_equilibrium(model, p, x).congestion, q, rel_step=1e-6), rel=1e-4)
        assert stat.dlam_dq == pytest.approx(finite_difference(
            lambda x: solve_equilibrium(model, p, x).throughput, q, rel_step=1e-6), rel=1e-4)

        report = evaluate_objectives(model, p, q)
        g = report.gradients
        assert g.profit_capacity > 0.0          # positive margin by construction
        assert g.welfare_capacity > 0.0
        assert g.welfare_price_user < 0.0 and g.welfare_price_cp < 0.0

        def profit_at(pp=p, qq=q, mu=None):
            mm = dataclasses.replace(model, capacity=mu) if mu else model
            return evaluate_objectives(mm, pp, qq).profit

        def welfare_at(pp=p, qq=q, mu=None):
            mm = dataclasses.replace(model, capacity=mu) if mu else model
            return evaluate_objectives(mm, pp, qq).surplus_welfare

        for got, want, name in (
                (g.profit_price_user, finite_difference(lambda x: profit_at(pp=x), p), "dU/dp"),
                (g.profit_price_cp, finite_difference(lambda x: profit_at(qq=x), q), "dU/dq"),
                (g.profit_capacity, finite_difference(lambda x: profit_at(mu=x), model.capacity), "dU/dmu"),
                (g.welfare_price_user, finite_difference(lambda x: welfare_at(pp=x), p), "dW/dp"),
                (g.welfare_price_cp, finite_difference(lambda x: welfare_at(qq=x), q), "dW/dq"),
                (g.welfare_capacity, finite_difference(lambda x: welfare_at(mu=x), model.capacity), "dW/dmu")):
            assert got == pytest.approx(want, rel=1e-4, abs=1e-6), name
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    _ok(4, f"16 analytic derivatives x {checked} random points match finite "
           f"differences at 1e-4 with all signs as predicted ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. profit optimum structure on the evaluation model grid
# ---------------------------------------------------------------------------

def test_criterion_05_profit_optimum_structure():
    worst_kkt = worst_lerner = worst_hazard_gap = 0.0
    for gain in GAINS.values():
        for congestion in CONGESTIONS.values():
            for beta in (1.0, 2.0):
                model = baseline_model(gain=gain, congestion=congestion, beta=beta)
                report = optimize_profit(model)
                assert not report.boundary
                d = report.diagnostics
                hazard_gap = abs(d.user_hazard - d.cp_hazard) / d.user_hazard
                worst_hazard_gap = max(worst_hazard_gap, hazard_gap)
                worst_kkt = max(worst_kkt, d.kkt_residual)
                worst_lerner = max(worst_lerner, d.lerner_residual)
                # 100x the worst residuals on the builtin models (gain x law x
                # beta in {0.2, 1, 2}, M/M/1 at capacity 1 and 2.5) and the
                # video-like model: 1.25e-10, 3.69e-10 and 1.47e-10
                assert hazard_gap <= 1.3e-8
                assert d.kkt_residual <= 3.7e-8
                assert d.lerner_residual <= 1.5e-8
    worst_shortfall = 0.0
    for gain in GAINS.values():
        for congestion in CONGESTIONS.values():
            model = baseline_model(gain=gain, congestion=congestion)
            report = optimize_profit(model)
            best = grid_optimize(model, "profit")     # 2001 x 2001
            shortfall = best.value - report.objective
            worst_shortfall = max(worst_shortfall, shortfall)
            assert report.objective >= best.value - 1e-8
            assert abs(report.objective - best.value) <= 1e-6
    _ok(5, f"hazard equalization (worst gap {worst_hazard_gap:.1e}), KKT "
           f"{worst_kkt:.1e}, Lerner {worst_lerner:.1e}; refined optimum "
           f"dominates the 2001^2 grid (worst shortfall {worst_shortfall:.1e})")


# ---------------------------------------------------------------------------
# 6. worked closed-form examples
# ---------------------------------------------------------------------------

def test_criterion_06_worked_examples():
    worst_profit = worst_welfare = 0.0
    for capacity in (0.5, 1.0, 2.0):
        model = worked_example_model(capacity)
        profit = optimize_profit(model)
        phi = profit.equilibrium.congestion
        res_p = abs(profit.prices.user - (phi + 2.7) / (phi + 4.0))
        res_q = abs(profit.prices.cp - (phi + 1.4) / (phi + 4.0))
        worst_profit = max(worst_profit, res_p, res_q)
        assert res_p <= 1e-5 and res_q <= 1e-5

        welfare = optimize_welfare(model)
        phi_w = welfare.equilibrium.congestion
        k = (-phi_w + math.sqrt(phi_w * phi_w + 48.0)) / 6.0
        res_w = abs(welfare.prices.user - (3 * k + 2 * 0.7 - 2.0) / (3 * k + 2.0))
        worst_welfare = max(worst_welfare, res_w)
        assert res_w <= 1e-5
    _ok(6, f"worked-example price formulas hold for capacity 0.5/1/2 "
           f"(profit residual {worst_profit:.1e}, welfare residual {worst_welfare:.1e})")


# ---------------------------------------------------------------------------
# 7. welfare optimum structure
# ---------------------------------------------------------------------------

def test_criterion_07_welfare_optimum_structure():
    worst = 0.0
    for gain in GAINS.values():
        for congestion in CONGESTIONS.values():
            for beta in (1.0, 2.0):
                model = baseline_model(gain=gain, congestion=congestion, beta=beta)
                report = optimize_welfare(model)
                assert not report.boundary
                worst = max(worst, report.diagnostics.ramsey_residual)
                # 100x the worst residual on the models of criterion 05: 5.31e-13
                assert report.diagnostics.ramsey_residual <= 5.4e-11
                assert abs(report.prices.total - model.cost) <= 4e-16
    free = optimize_welfare(baseline_model(beta=2.0, capacity=1e6))
    d = free.diagnostics
    gap = abs(d.user_surplus_per_unit / d.user_hazard
              - d.cp_surplus_per_unit / d.cp_hazard)
    assert gap <= 1e-3 * (d.user_surplus_per_unit + d.cp_surplus_per_unit)
    _ok(7, f"zero-profit optimum ratio condition holds (worst residual {worst:.1e}); "
           f"congestion-free proportionality gap {gap:.1e}")


# ---------------------------------------------------------------------------
# 8. price-sensitivity sign rules and ratio identities
# ---------------------------------------------------------------------------

def test_criterion_08_sensitivity_corollaries(monkeypatch):
    def at_half_step(model, parameter):
        with monkeypatch.context() as patch:
            patch.setattr("netpricing.sensitivity.PARAM_REL_STEP", 5e-4)
            return optimal_price_sensitivity(model, parameter)

    # falling-elasticity branch: sharing with both builtin gains
    for gain in GAINS.values():
        model = baseline_model(gain=gain, beta=2.0)
        cap = optimal_price_sensitivity(model, "capacity")
        assert cap.profit_context.elasticity_slope < 0.0
        profit_check, welfare_check = cap.predictions
        assert profit_check.conclusive and profit_check.signs_satisfied
        # 100x the worst residual on the models of criterion 05, at this
        # step and at half of it: 6.69e-10
        assert profit_check.ratio_residual <= 6.7e-8
        assert welfare_check.conclusive and welfare_check.signs_satisfied
        assert cap.profit_price_derivs[0] < 0 and cap.profit_price_derivs[1] < 0

        sens = optimal_price_sensitivity(model, "sensitivity")
        assert sens.predictions[0].ratio_residual <= 6.7e-8
        assert abs(sens.welfare_price_derivs[0] + sens.welfare_price_derivs[1]) <= 1e-6

        # halving the step flips no sign
        cap_half = at_half_step(model, "capacity")
        sens_half = at_half_step(model, "sensitivity")
        for full, half in ((cap, cap_half), (sens, sens_half)):
            for a, b in zip(full.profit_price_derivs + full.welfare_price_derivs,
                            half.profit_price_derivs + half.welfare_price_derivs):
                assert math.copysign(1.0, a) == math.copysign(1.0, b)

    # rising-elasticity branch: the video-like custom gain under M/M/1
    video = video_like_model()
    cap = optimal_price_sensitivity(video, "capacity")
    assert cap.profit_context.elasticity_slope > 0.0
    assert cap.welfare_context.elasticity_slope > 0.0
    assert all(c.conclusive and c.signs_satisfied for c in cap.predictions)
    sens = optimal_price_sensitivity(video, "sensitivity")
    assert sens.profit_price_derivs[0] > 0 and sens.profit_price_derivs[1] > 0
    assert all(c.conclusive and c.signs_satisfied for c in sens.predictions)
    cap_half = at_half_step(video, "capacity")
    sens_half = at_half_step(video, "sensitivity")
    for full, half in ((cap, cap_half), (sens, sens_half)):
        for a, b in zip(full.profit_price_derivs + full.welfare_price_derivs,
                        half.profit_price_derivs + half.welfare_price_derivs):
            assert math.copysign(1.0, a) == math.copysign(1.0, b)
    _ok(8, "sign rules and ratio identities hold on both elasticity branches; "
           "step halving flips no sign")


# ---------------------------------------------------------------------------
# 9. elasticity identities per congestion family
# ---------------------------------------------------------------------------

def test_criterion_09_elasticity_identities():
    rng = np.random.default_rng(109)
    worst_sharing = worst_mm1 = 0.0
    for _ in range(500):
        gain = GAINS["reciprocal"] if rng.random() < 0.5 else GAINS["exponential"]
        alpha = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(0.5, 2.0))
        mu = float(rng.uniform(0.4, 5.0))
        s = float(rng.uniform(0.5, 3.0))
        p = float(rng.uniform(0.05, 0.6))
        q = float(rng.uniform(0.05, 0.6))

        sharing = baseline_model(gain=gain, alpha=alpha, beta=beta,
                                 capacity=mu, sensitivity=s)
        eq = solve_equilibrium(sharing, p, q)
        gap = abs(eq.elasticity
                  - 1.0 / (1.0 + gain_elasticity(gain, eq.congestion, s)))
        worst_sharing = max(worst_sharing, gap)
        assert gap <= 1e-10

        mm1 = baseline_model(gain=gain, congestion=CONGESTIONS["mm1"],
                             alpha=alpha, beta=beta, capacity=mu, sensitivity=s)
        eq = solve_equilibrium(mm1, p, q)
        m, n = mm1.demands(p, q)
        weight = -eq.congestion ** 2 * gain.slope(eq.congestion, s)
        gap = abs(eq.elasticity - 1.0 / (1.0 + m * n * weight))
        worst_mm1 = max(worst_mm1, gap)
        assert gap <= 1e-10
    _ok(9, f"elasticity identities hold to 1e-10 on 500 random models per "
           f"family (worst: sharing {worst_sharing:.1e}, mm1 {worst_mm1:.1e})")


# ---------------------------------------------------------------------------
# 10. evaluation trends over 26-point sweeps
# ---------------------------------------------------------------------------

def _sweep_rows(parameter: str, start: float, stop: float, **model_overrides):
    cfg = parse_config(
        f"sweep.parameter = {parameter}\nsweep.range = {start}:{stop}:26")
    for key, value in model_overrides.items():
        cfg = dataclasses.replace(cfg, **{key: value})
    return run_sweep(cfg).rows


def _strictly(seq, op):
    return all(op(b, a) for a, b in zip(seq, seq[1:]))


def _trend_agreement(r_star, r_ring):
    hits = sum(1 for i in range(len(r_star) - 1)
               if (r_star[i + 1] - r_star[i]) * (r_ring[i + 1] - r_ring[i]) > 0)
    return hits / (len(r_star) - 1)


def test_criterion_10_evaluation_trends():
    start = time.time()
    import operator
    up, down = operator.gt, operator.lt

    rows_alpha = _sweep_rows("alpha", 0.5, 3.0)
    r_star = [r.profit_growth for r in rows_alpha]
    r_ring = [r.welfare_growth for r in rows_alpha]
    assert all(r.error is None for r in rows_alpha)
    assert all(v >= 0.0 for v in r_star) and all(v >= 0.0 for v in r_ring)
    assert _strictly(r_star, up)
    assert _trend_agreement(r_star, r_ring) >= 0.95

    rows_mu = _sweep_rows("capacity", 0.5, 5.0)
    r_star_mu = [r.profit_growth for r in rows_mu]
    assert all(v >= 0.0 for v in r_star_mu)
    assert _strictly(r_star_mu, up)
    assert _trend_agreement(r_star_mu, [r.welfare_growth for r in rows_mu]) >= 0.95

    # heavier content demand raises the two-sided advantage pointwise
    by_beta = {beta: [r.profit_growth
                      for r in _sweep_rows("alpha", 0.5, 3.0, beta=beta)]
               for beta in (1.0, 2.0, 3.0)}
    assert all(b > a for a, b in zip(by_beta[1.0], by_beta[2.0]))
    assert all(b > a for a, b in zip(by_beta[2.0], by_beta[3.0]))

    # M/M/1, ample capacity: higher congestion sensitivity lowers the gain
    by_s = {s: [r.profit_growth
                for r in _sweep_rows("capacity", 2.5, 10.0,
                                     congestion="mm1", sensitivity=s)]
            for s in (0.5, 1.0, 3.0)}
    assert all(h < m for h, m in zip(by_s[3.0], by_s[1.0]))
    assert all(m < l for m, l in zip(by_s[1.0], by_s[0.5]))

    # price trends: user side falls, content side rises, zero-profit prices
    # never exceed the profit-optimal ones
    for rows in (rows_alpha, _sweep_rows("beta", 0.5, 3.0)):
        assert _strictly([r.p_star for r in rows], down)
        assert _strictly([r.q_star for r in rows], up)
        assert _strictly([r.p_welfare for r in rows], down)
        assert _strictly([r.q_welfare for r in rows], up)
        assert all(r.p_welfare <= r.p_star for r in rows)
        assert all(r.q_welfare <= r.q_star for r in rows)
    elapsed = time.time() - start
    _ok(10, f"all growth-rate and price trends reproduced over nine 26-point "
            f"sweeps ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 11. byte-level determinism of the experiment harness
# ---------------------------------------------------------------------------

def test_criterion_11_deterministic_output(tmp_path):
    cfg = parse_config("sweep.parameter = alpha\nsweep.range = 0.5:3:8\n"
                       "congestion = mm1\ncapacity = 2.5")
    blobs = []
    for name in ("one.csv", "two.csv", "three.csv"):
        result = run_sweep(cfg)
        path = emit_csv(result, tmp_path / name)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]
    _ok(11, f"identical configs give byte-identical CSV across three runs "
            f"({len(blobs[0])} bytes)")
