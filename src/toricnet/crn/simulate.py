"""Fixed-step mass-action integration.

Classical RK4 on cdot = Y * A * Psi(c). Any Runge-Kutta step moves c along a
combination of stoichiometric columns, so linear conservation laws survive up
to roundoff; the integrator checks them at every recorded step and treats a
violation as an internal bug, not bad input.

The right-hand side is built once per call from sparse lists: each complex's
nonzero exponents and the nonzero entries of A and Y, each in index order.
The terms it skips would add exact zeros, so every state is bit-identical to
the dense products Y * A * Psi(c) wherever those are finite. A state that leaves the float range (the
solution blows up, or dt is far too large) is refused with InputError rather
than integrated on through infinities and NaNs, and so is a run of more
than STEP_CAP steps: past t = 2^53 * dt, t += dt no longer moves t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InputError, InternalError
from ..exactcore import lattice_kernel, transpose
from .network import build_rate_matrix, stoichiometric_matrix
from .parser import Network

STEP_CAP = 10**6


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]

    @property
    def final(self) -> tuple[float, ...]:
        return self.states[-1]


def conservation_laws(net: Network) -> list[list[int]]:
    """Integer basis of the left kernel of the stoichiometric matrix."""
    return lattice_kernel(transpose(stoichiometric_matrix(net)))


def simulate(
    net: Network,
    bindings: dict | None,
    c0,
    t_end: float,
    dt: float,
    record_every: int = 1,
) -> Trajectory:
    c0 = [float(x) for x in c0]
    if len(c0) != net.n_species:
        raise InputError(f"c0 needs {net.n_species} entries, got {len(c0)}")
    if not all(map(math.isfinite, [*c0, t_end, dt])):
        raise InputError("t_end, dt and the initial concentrations must be finite")
    if any(x < 0 for x in c0):
        raise InputError("initial concentrations must be non-negative")
    if dt <= 0 or t_end <= 0:
        raise InputError("t_end and dt must be positive")
    if t_end / dt > STEP_CAP:  # a float compare: the ratio may be inf
        raise InputError(f"t_end / dt = {t_end / dt:.6g} exceeds the step cap {STEP_CAP}")
    if record_every < 1:
        raise InputError("record_every must be >= 1")

    a = build_rate_matrix(net, bindings or {})
    monomials = [[(j, e) for j, e in enumerate(vec) if e] for vec in net.complexes]
    a_rows = [[(l, float(x)) for l, x in enumerate(row) if x] for row in a]
    y_rows = [
        [(k, float(vec[j])) for k, vec in enumerate(net.complexes) if vec[j]]
        for j in range(net.n_species)
    ]

    def deriv(c: list[float]) -> list[float]:
        psi = []
        for pairs in monomials:
            prod = 1.0
            for j, e in pairs:
                prod *= c[j] ** e
            psi.append(prod)
        flux = [sum([x * psi[l] for l, x in row]) for row in a_rows]
        return [sum([y * flux[k] for k, y in row]) for row in y_rows]

    laws = [[float(x) for x in w] for w in conservation_laws(net)]
    law_refs = [sum(wi * ci for wi, ci in zip(w, c0)) for w in laws]

    def check_conservation(c: list[float]) -> None:
        for w, ref in zip(laws, law_refs):
            drift = abs(sum(wi * ci for wi, ci in zip(w, c)) - ref)
            if drift > 1e-8 * max(1.0, abs(ref)):
                raise InternalError(f"conservation drift {drift:.3e} exceeds tolerance")

    times = [0.0]
    states = [tuple(c0)]
    c = list(c0)
    t = 0.0
    step = 0
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        try:
            k1 = deriv(c)
            k2 = deriv([ci + h / 2 * ki for ci, ki in zip(c, k1)])
            k3 = deriv([ci + h / 2 * ki for ci, ki in zip(c, k2)])
            k4 = deriv([ci + h * ki for ci, ki in zip(c, k3)])
        except OverflowError:  # a power c_j^e beyond the float range
            raise InputError(f"concentrations overflowed after t = {t:.6g}") from None
        c = [
            ci + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
            for ci, a1, a2, a3, a4 in zip(c, k1, k2, k3, k4)
        ]
        t += h
        step += 1
        if not all(map(math.isfinite, c)):
            raise InputError(f"concentrations overflowed at t = {t:.6g}")
        if min(c) < -1e-12:
            raise InputError(
                f"concentration went negative at t = {t:.6g}; use a smaller dt"
            )
        if step % record_every == 0 or t >= t_end - 1e-12:
            check_conservation(c)
            times.append(t)
            states.append(tuple(c))
    return Trajectory(times=tuple(times), states=tuple(states))
