"""Solver contracts that tests check from outside, on the module attributes
that admm.block_step looks up at every step."""

from radiomap import admm
from radiomap.tensors import fro_norm, project


def check_noise_ball(monkeypatch) -> list:
    """Wrap admm.update_n so that every N step of a classical solve asserts the
    noise ball, ||project(n, mask)||_F <= delta + 1e-12, and raises
    AssertionError naming the step that broke it. Returns the list that each
    checked step appends its on-mask norm to."""
    norms = []
    update_n = admm.update_n

    def checked(state, pd, mask, hp, ops):
        n = update_n(state, pd, mask, hp, ops)
        ball = fro_norm(project(n, mask))
        norms.append(ball)
        if not ball <= hp.delta + 1e-12:
            raise AssertionError(f"noise ball violated at N step {len(norms)}: "
                                 f"{ball!r} > {hp.delta!r} + 1e-12")
        return n

    monkeypatch.setattr(admm, "update_n", checked)
    return norms


def zero_pq(state, hp):
    """P/Q step that keeps P and Q at their zero start, as an unrolled block
    whose mappers output zero does; patched over admm.update_pq_classical."""
    return state.p, state.q
