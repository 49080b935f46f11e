"""Provider profit, market welfare, and their closed-form gradients.

Profit is margin times carried throughput, U = (p + q - c) * lam.  Welfare
splits into the user side W_m = s_m(p) * lam and the content side
W_n = s_n(q) * lam, with s_* the per-unit surpluses.  The reported total
``welfare`` is W_m + W_n + U.

The welfare gradient entries are the derivatives of the surplus sum
W_m + W_n, the objective of the zero-profit pricing problem (on its
constraint set the profit term contributes nothing to tangential
derivatives).  The matching finite-difference checks therefore difference
W_m + W_n, while the profit gradients difference U itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import MarketModel
from .equilibrium import Equilibrium, gap_slope, solve_equilibrium


@dataclass(frozen=True)
class ObjectiveGradients:
    profit_price_user: float    # dU/dp
    profit_price_cp: float      # dU/dq
    profit_capacity: float      # dU/dmu
    welfare_price_user: float   # d(W_m + W_n)/dp
    welfare_price_cp: float     # d(W_m + W_n)/dq
    welfare_capacity: float     # d(W_m + W_n)/dmu


_ZERO_GRADIENTS = ObjectiveGradients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ObjectiveReport:
    profit: float               # U
    user_welfare: float         # W_m
    cp_welfare: float           # W_n
    welfare: float              # W_m + W_n + U
    gradients: ObjectiveGradients
    equilibrium: Equilibrium
    degenerate: bool

    @property
    def surplus_welfare(self) -> float:
        """W_m + W_n, the zero-profit planner's objective."""
        return self.user_welfare + self.cp_welfare


def evaluate_objectives(model: MarketModel, price_user: float,
                        price_cp: float) -> ObjectiveReport:
    """Profit, welfare components, and all six analytic gradients at (p, q).

    Negative margins are legal (optimizers probe them); zero demand yields a
    degenerate report with zero values and zero gradients.
    """
    eq = solve_equilibrium(model, price_user, price_cp)
    if eq.degenerate:
        return ObjectiveReport(0.0, 0.0, 0.0, 0.0, _ZERO_GRADIENTS, eq, True)

    m, n = eq.user_level, eq.cp_level
    lam, phi, eps = eq.throughput, eq.congestion, eq.elasticity
    margin = price_user + price_cp - model.cost

    s_m = model.user_demand.per_unit_surplus(price_user)
    s_n = model.cp_demand.per_unit_surplus(price_cp)
    profit = margin * lam
    user_welfare = s_m * lam
    cp_welfare = s_n * lam
    surplus_welfare = user_welfare + cp_welfare

    user_hazard = model.user_demand.hazard(price_user)
    cp_hazard = model.cp_demand.hazard(price_cp)
    gain_hazard = model.gain.hazard(phi, model.sensitivity)
    cap_slope = model.congestion.capacity_slope(phi, model.capacity, lam)
    dg = gap_slope(model, m * n, phi, lam)

    # hazards may diverge at a zero price (convex demands); with an exactly
    # zero margin the hazard term drops out rather than producing 0 * inf
    margin_weight = margin * eps * lam
    hazard_term = (lambda h: 0.0 if margin_weight == 0.0 else margin_weight * h)
    gradients = ObjectiveGradients(
        profit_price_user=lam - hazard_term(user_hazard),
        profit_price_cp=lam - hazard_term(cp_hazard),
        profit_capacity=margin * cap_slope * (1.0 - eps),
        welfare_price_user=(-lam - user_hazard
                            * (cp_welfare - surplus_welfare * (1.0 - eps))),
        welfare_price_cp=(-lam - cp_hazard
                          * (user_welfare - surplus_welfare * (1.0 - eps))),
        welfare_capacity=surplus_welfare * gain_hazard * cap_slope / dg,
    )
    return ObjectiveReport(
        profit=profit,
        user_welfare=user_welfare,
        cp_welfare=cp_welfare,
        welfare=surplus_welfare + profit,
        gradients=gradients,
        equilibrium=eq,
        degenerate=False,
    )
