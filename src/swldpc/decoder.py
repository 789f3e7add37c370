"""Joint sum-product decoding of two syndrome-compressed correlated sources.

Messages are LLRs under the convention L(x) = ln(P(x=0)/P(x=1)), so a
positive value favors bit 0. The schedule is flooding: every iteration
updates all variable-to-check messages, then all check-to-variable
messages, then the posteriors.

Update rules (variable messages clamped to +/- LLR_MAX; check messages
stay inside that bound because every tanh value is at most
tanh(LLR_MAX/2) in magnitude and |f| <= 1, see ``_flood``):

* variable v to check c: prior(v) plus the sum of incoming check messages
  excluding the one from c. It is computed as the posterior of v from the
  previous iteration minus the message from c (the standard flooding
  identity), so no per-edge leave-one-out pass is needed. The subtraction
  rounds: a message differs from the exact leave-one-out sum by about
  1e-15 relative to the posterior, and a degree-1 variable sends its
  prior to within that rounding rather than bit for bit.
* check c (target parity b, check factor f) to variable v:
  2 atanh((1-2b) * f * prod tanh(m/2)) over incoming messages excluding
  the one from v. Code checks use their syndrome bit as b and f = 1;
  correlation checks use b = 0, and in folded form f = tanh(llr/2)
  stands in for the eliminated hidden-bit node. The update runs on the
  graph's check-degree groups (see ``graph._group_checks``):
  each group is one contiguous run of edges in a decode-local order, read
  as a (checks, degree) view. A degree-1 check's product is empty (1); a
  degree-2 check passes each edge its partner's value; for larger degrees
  the leave-one-out products are built column by column, prefix products
  from the left and suffix products from the right. Each product is
  multiplied in the same order as a forward and a backward ``np.cumprod``
  along the row and then joined by one multiplication, so it rounds
  exactly as the cumulative products did. For the graphs that
  ``build_joint_graph`` makes from regular codes the decode-local order is
  the check-major order itself; other graphs pay one gather into it and
  one scatter back per iteration.

The kernel (``_flood``) holds messages, priors and posteriors in half-LLR
units, m/2 clamped at +/- LLR_MAX/2, so tanh(m/2) and 2 atanh need no
scaling pass. Its callers halve the priors and double what leaves the
loop (the posteriors and the hook's snapshots); scaling by 2 is exact in
binary floating point short of the subnormal range, so every output
equals the full-unit rule bit for bit. The atanh argument needs no clip:
it is at most tanh(LLR_MAX/2) in magnitude, since every tanh value is
(the tests pin numpy's tanh to that bound at and near the clamp) and
|f| <= 1, and a degree-1 check, always a code check (f = 1), has its
empty product stored as that bound. Check messages are tested for
finiteness when the loop exits and before each hook call, not in every
iteration: a NaN check message makes its variable's posterior NaN, so
some check message stays NaN in every later iteration and the test still
raises.

The kernel's message buffers, with the column views and scratch of the
check update (``_Workspace``), are built once per plan and kept in it
between frames: the joint decode's in the graph's ``_plan``, the known-u1
decode's in the plan of the graph's ``KnownU1Graph``. Each graph holds its
own plans, so graphs over one code share no buffers. A decode checks the
buffers out of the plan's ``idle`` slot with an atomic ``deque.pop`` and
puts them back when it returns, also on an exception, so a decode that
starts meanwhile (another thread, or a hook decoding the same graph) finds
none and builds its own; results never depend on which buffers a decode
gets.

Hard decisions take bit 1 where the posterior is strictly negative, so an
exactly zero posterior resolves to 0. The convergence test needs only the
code checks (the correlation checks hold by construction of z_hat): it
counts the rows whose syndrome of the hard decisions differs from the
received bit, h1 over the u1 block and h2 over the u2 block, with the xor
reductions of ``syndrome`` over each code's row blocks. A row without
entries has syndrome bit 0, so it fails exactly when its received bit is 1.

Known u1 (the corner point). When h1 is the n x n identity, rows in
order, u1 is sent raw and s1 is u1. ``decode`` then runs the same kernel
on H2 alone (``JointTannerGraph._known_u1``, a ``graph.KnownU1Graph``),
3n edges where the corner graph has 6n. This is the side-information
decoder of Liveris, Xiong and Georghiades (IEEE Commun. Lett., 2002), and
it returns bit for bit what the joint graph returns:

* Every h1 check has degree 1 and sends u1 the constant c_id (1 - 2 u1),
  c_id = 2 atanh(tanh(LLR_MAX/2)) = 29.9998. A correlation check sends u1
  2 atanh(f tanh(m/2)) for a clamped u2 message m, and the hidden-bit LLR
  is clamped too, so that is at most 2 atanh(tanh(LLR_MAX/2)^2) = 29.31
  in magnitude, below c_id: u1's hard decisions equal s1 in every
  iteration, and h1 always holds.
* Iteration 1 leaves u1 at c_id (1 - 2 u1) and u2 at 0, since no H2 row
  has degree 1 (whose empty product is not 0); it converges iff s2 is all
  zero. Iteration 2 sends each u2 the constant correlation message
  q (1 - 2 u1), q = 2 atanh(f tanh(c_id/2)), and converges iff the signs
  of those priors satisfy H2. Both messages come from 2-entry tables
  indexed by the u1 bit, +/- c_id (``graph._IDENTITY_BY_BIT``) and +/- q/2
  (``KnownU1Graph``), exact. ``decode`` returns after iteration 1 or 2
  where the budget ends, or where early stop is on and it converged.
* From joint iteration 3 on, the u2 edges carry exactly what H2 alone
  carries with priors q (1 - 2 u1). The loop runs for at most
  ``max_iterations - 2`` iterations, and ``iterations_used`` adds that
  offset of 2 back.
* ``posterior_llrs[:n]`` is rebuilt after the loop as the joint graph sums
  it: c_id (1 - 2 u1) plus one correlation message, 2 atanh(f tanh(v/2)),
  where v = L_prev - q (1 - 2 u1) and L_prev is the u2 posterior of the
  iteration before the last (the priors, if the loop ran once). The kernel
  hands L_prev back in half-LLR units, so v/2 is formed directly, which
  equals the full-unit value halved bit for bit. ``u1_hat`` is that
  posterior's sign.

The joint graph runs instead when an ``iteration_hook`` is given (its
snapshots, and so ``--trace``, show the joint graph), when damping is
positive (the correlation message then ramps up instead of being
constant), and for graphs the reduction rejects: explicit form (the z
nodes change the messages), an H2 with a degree-1 row, an H2 without
entries (the kernel needs an edge) and any other h1, the identity's rows
in another order included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .correlation import LLR_MAX, _is_finite_real
from .graph import _IDENTITY_BY_BIT, _TANH_LIMIT, FOLDED_Z, JointTannerGraph, KnownU1Graph
from .ldpc import _integer, _row_parity, as_bit_array

# 1 - 2 b for a bit b, by table lookup
_SIGN = np.array([1.0, -1.0])

# Joint iterations that precede the known-u1 loop (see the module notes).
_KNOWN_U1_OFFSET = 2


@dataclass(frozen=True)
class DecoderConfig:
    max_iterations: int = 100
    damping: float = 0.0
    early_stop: bool = True

    def __post_init__(self):
        max_iterations = _integer("max_iterations", self.max_iterations, positive=True)
        object.__setattr__(self, "max_iterations", max_iterations)
        if not (_is_finite_real(self.damping) and 0.0 <= self.damping < 1.0):
            raise ValueError(f"damping must lie in [0, 1), got {self.damping!r}")


@dataclass(frozen=True, eq=False)
class IterationInfo:
    """Snapshot passed to the per-iteration hook (arrays are copies)."""

    iteration: int
    unsatisfied_checks: int
    mean_abs_posterior: float
    v2c: np.ndarray
    c2v: np.ndarray
    posteriors: np.ndarray


@dataclass(frozen=True, eq=False)
class DecodeResult:
    u1_hat: np.ndarray
    u2_hat: np.ndarray
    z_hat: np.ndarray
    converged: bool
    iterations_used: int
    posterior_llrs: np.ndarray  # length 2n: u1 block then u2 block


def decode(
    graph: JointTannerGraph,
    s1,
    s2,
    config: Optional[DecoderConfig] = None,
    iteration_hook: Optional[Callable[[IterationInfo], None]] = None,
) -> DecodeResult:
    """Run joint belief propagation for one pair of syndromes.

    Args:
        graph: joint Tanner graph (either form).
        s1: syndrome of the first source, length graph.m1.
        s2: syndrome of the second source, length graph.m2.
        config: decoder settings; defaults to DecoderConfig().
        iteration_hook: optional callable invoked after every iteration
            with an IterationInfo snapshot.

    Returns:
        DecodeResult. ``converged`` is True iff the returned hard
        decisions reproduce both syndromes; the correlation checks are
        satisfied by construction through z_hat = u1_hat xor u2_hat.
    """
    if config is None:
        config = DecoderConfig()
    s1 = as_bit_array(s1, graph.m1)
    s2 = as_bit_array(s2, graph.m2)
    if iteration_hook is None and config.damping == 0.0 and graph._known_u1 is not None:
        return _decode_known_u1(graph._known_u1, s1, s2, config)

    n, m1, code_checks = graph.n, graph.m1, graph.num_code_checks
    # Per-edge constant: target-parity sign times check factor. Code checks
    # have f = 1 and so scale by their sign; correlation checks have parity
    # 0 and scale by f, tanh(llr/2) in folded form and 1 in explicit form.
    check_scale = np.empty(graph.check_count)
    check_scale[:m1] = _SIGN.take(s1)
    check_scale[m1:code_checks] = _SIGN.take(s2)
    check_scale[code_checks:] = np.tanh(graph.corr_param * 0.5) if graph.form == FOLDED_Z else 1.0
    edge_scale = check_scale[graph.edge_check]
    unsatisfied = _parity_test((graph.h1, s1, 0), (graph.h2, s2, n))

    report = None
    if iteration_hook is not None:

        def report(iteration, unsatisfied_checks, v2c, c2v, posteriors):
            # the kernel's buffers are in half-LLR units; doubling copies them
            posteriors = posteriors[: 2 * n] * 2.0
            iteration_hook(
                IterationInfo(
                    iteration=iteration,
                    unsatisfied_checks=unsatisfied_checks,
                    mean_abs_posterior=float(np.abs(posteriors).mean()),
                    v2c=v2c * 2.0,
                    c2v=c2v * 2.0,
                    posteriors=posteriors,
                )
            )

    posteriors, _, converged, iterations_used = _flood(
        graph._plan, edge_scale, graph.priors * 0.5, unsatisfied,
        config, config.max_iterations, report,
    )
    return _result(posteriors[: 2 * n] * 2.0, converged, iterations_used)


def _decode_known_u1(known: KnownU1Graph, s1, s2, config: DecoderConfig) -> DecodeResult:
    """``decode`` on a graph whose u1 block is s1 (see the module notes)."""
    n = len(s1)
    budget, early_stop = config.max_iterations, config.early_stop
    identity = _IDENTITY_BY_BIT.take(s1)  # the u1 posteriors of iterations 1 and 2
    converged = not s2.any()  # the test of iteration 1, where u2 is 0
    if budget == 1 or early_stop and converged:
        return _result(np.concatenate([identity, np.zeros(n)]), converged, 1)
    priors = known.half_prior_by_bit.take(s1)  # the u2 posteriors of iteration 2, halved
    unsatisfied = _parity_test((known.h2, s2, 0))
    if budget == 2 or early_stop:
        converged = unsatisfied(priors < 0) == 0
        if budget == 2 or converged:
            return _result(np.concatenate([identity, priors * 2.0]), converged, 2)

    edge_scale = _SIGN.take(s2)[known.h2.entries[1]]
    posteriors, previous, converged, iterations_used = _flood(
        known._plan, edge_scale, priors, unsatisfied,
        config, budget - _KNOWN_U1_OFFSET,
    )
    # The last iteration's correlation messages to u1, from the u2
    # messages of the iteration before (in half-LLR units, as the kernel
    # holds them), summed as the joint graph does. The rebuild runs in place.
    v = np.subtract(previous, priors)
    v.clip(-LLR_MAX * 0.5, LLR_MAX * 0.5, out=v)
    np.tanh(v, out=v)
    np.multiply(v, known.corr_factor, out=v)
    np.arctanh(v, out=v)
    np.multiply(v, 2.0, out=v)
    posterior_llrs = np.empty(2 * n)
    np.add(identity, v, out=posterior_llrs[:n])
    np.multiply(posteriors, 2.0, out=posterior_llrs[n:])
    return _result(posterior_llrs, converged, iterations_used + _KNOWN_U1_OFFSET)


def _result(posterior_llrs, converged, iterations_used) -> DecodeResult:
    """A result from the u1 and u2 posteriors, hard decisions by sign."""
    hard = np.less(posterior_llrs, 0).view(np.uint8)
    n = len(hard) // 2
    u1_hat, u2_hat = hard[:n], hard[n:]
    return DecodeResult(
        u1_hat=u1_hat,
        u2_hat=u2_hat,
        z_hat=u1_hat ^ u2_hat,
        converged=converged,
        iterations_used=iterations_used,
        posterior_llrs=posterior_llrs,
    )


def _parity_test(*codes):
    """The convergence test: a function from hard decisions to the count
    of code checks they violate.

    Each code comes as ``(h, received syndrome, first variable)``, the
    syndrome as ``as_bit_array`` returns it: the code reads the hard
    decisions of ``h.n`` variables from that one on, and its violated
    checks are the rows whose syndrome of those decisions differs from the
    received bit.
    """
    codes = [(h, s.view(bool), start, start + h.n) for h, s, start in codes]

    def unsatisfied(hard) -> int:
        count = 0
        for h, bits, start, stop in codes:
            count += int(np.count_nonzero(_row_parity(h, hard[start:stop]) != bits))
        return count

    return unsatisfied


class _Workspace:
    """The message buffers of ``_flood`` for one plan, kept across frames.

    ``v2c``, ``t``, ``excl``, ``c2v`` and ``fresh`` hold one value per
    check-major edge; ``t_grouped`` and ``excl_grouped`` are ``t`` and
    ``excl`` in the decode-local order (the same arrays when no reordering
    is needed). ``v2c`` is used only when a hook reads the variable
    messages (otherwise they are built in ``t`` and turned into their tanh
    in place), and ``fresh`` only under damping (otherwise the check
    messages are written into ``c2v`` in place), so both are allocated on
    first use: a known-u1 workspace never holds them. The check update of
    every check-degree group of degree 2 or more is spelled out once, on
    column views of the grouped buffers: ``copies`` holds the ``(target, source)``
    column pairs of the degree-2 groups, and ``products`` the ``(a, b,
    out)`` column multiplications of the larger ones, in order (see
    ``_leave_one_out``). Degree-1 entries of ``excl`` hold ``_TANH_LIMIT``
    from the start and are never written, so they need no reset between
    frames; ``c2v`` is zeroed at the start of every frame and every other
    buffer is written before it is read.
    """

    def __init__(self, plan):
        num_edges = len(plan.edge_var)
        self.t = np.empty(num_edges)
        self.excl = np.full(num_edges, _TANH_LIMIT)
        self.c2v = np.empty(num_edges)
        self.group_order = plan.group_order
        if self.group_order is None:
            self.t_grouped, self.excl_grouped = self.t, self.excl
        else:
            self.t_grouped = np.empty(num_edges)
            self.excl_grouped = np.full(num_edges, _TANH_LIMIT)
        self.copies, self.products = [], []
        for degree, start, stop in plan.check_groups:
            t_cols = list(self.t_grouped[start:stop].reshape(-1, degree).T)
            out_cols = list(self.excl_grouped[start:stop].reshape(-1, degree).T)
            if degree == 2:
                self.copies += [(out_cols[0], t_cols[1]), (out_cols[1], t_cols[0])]
            elif degree > 2:
                self.products += _leave_one_out(t_cols, out_cols)

    @cached_property
    def v2c(self) -> np.ndarray:
        return np.empty(len(self.t))

    @cached_property
    def fresh(self) -> np.ndarray:
        return np.empty(len(self.t))


def _flood(plan, edge_scale, priors, unsatisfied, config, max_iterations, report=None):
    """The flooding loop over one graph's edges, the decode kernel.

    ``plan`` is the graph's ``graph._KernelPlan``: ``plan.edge_var`` maps
    each check-major edge to its variable. ``edge_scale`` holds each edge's
    check sign times check factor and ``priors`` one half-LLR per variable.
    Runs at most ``max_iterations`` iterations with ``config``'s damping
    and early stop, calling ``report(iteration, unsatisfied, v2c, c2v,
    posteriors)`` after each one when given, with the loop's own buffers in
    half-LLR units.

    Messages, priors and posteriors are in half-LLR units, the atanh
    argument is not clipped, and check messages are tested for finiteness
    only where the loop exits and before each ``report`` call (see the
    module notes).

    The buffers come from the plan's idle workspace (see ``_Workspace``),
    checked out for the length of the call: ``report`` receives them and
    must copy what it keeps, and a decode it starts builds its own.

    Returns the last posteriors and those of the iteration before (the
    priors after one iteration), both in half-LLR units, whether the last
    hard decisions satisfy every code check, and the number of iterations
    run.
    """
    # Check the workspace out, so that a decode running meanwhile over the
    # same plan (another thread, or a hook's decode) builds its own.
    try:
        workspace = plan.idle.pop()
    except IndexError:
        workspace = _Workspace(plan)
    edge_var = plan.edge_var
    t, excl, c2v = workspace.t, workspace.excl, workspace.c2v
    # the variable messages are needed after their tanh only by the hook
    v2c = t if report is None else workspace.v2c
    fresh = workspace.fresh if config.damping > 0.0 else None
    c2v.fill(0.0)
    group_order = workspace.group_order
    t_grouped, excl_grouped = workspace.t_grouped, workspace.excl_grouped
    copies, products = workspace.copies, workspace.products
    damping = config.damping
    posteriors = previous = priors
    converged = False
    iterations_used = 0
    limit = LLR_MAX * 0.5
    try:
        for iteration in range(1, max_iterations + 1):
            # Variable update: each edge sends the posterior minus its own
            # incoming message.
            posteriors.take(edge_var, out=v2c, mode="clip")
            np.subtract(v2c, c2v, out=v2c)
            v2c.clip(-limit, limit, out=v2c)

            # Check update on the contiguous degree groups: a degree-2 check
            # passes each edge its partner's value, larger degrees take
            # leave-one-out products.
            np.tanh(v2c, out=t)
            if group_order is not None:
                t.take(group_order, out=t_grouped, mode="clip")
            for target, source in copies:
                target[...] = source
            for a, b, out in products:
                np.multiply(a, b, out)  # a positional out skips keyword parsing
            if group_order is not None:
                excl[group_order] = excl_grouped
            # atanh(_TANH_LIMIT) is just below LLR_MAX/2, and damping mixes two
            # such values, so check messages need no clamp of their own
            if damping > 0.0:
                np.multiply(edge_scale, excl, out=fresh)
                np.arctanh(fresh, out=fresh)
                np.multiply(fresh, 1.0 - damping, out=fresh)
                np.multiply(c2v, damping, out=c2v)
                np.add(fresh, c2v, out=fresh)
                c2v, fresh = fresh, c2v
            else:
                np.multiply(edge_scale, excl, out=c2v)
                np.arctanh(c2v, out=c2v)

            previous = posteriors
            posteriors = np.bincount(edge_var, weights=c2v, minlength=len(priors))
            posteriors += priors
            hard = posteriors < 0

            # Convergence test: z_hat = u1_hat xor u2_hat satisfies every
            # correlation check, so only the code checks can be violated.
            unsatisfied_checks = unsatisfied(hard)
            converged = unsatisfied_checks == 0
            iterations_used = iteration

            if report is not None:
                _check_finite(c2v)
                report(iteration, unsatisfied_checks, v2c, c2v, posteriors)
            if converged and config.early_stop:
                break
            if iteration == 1 and max_iterations > 1 and report is None and not c2v.any():
                # Stalled: with every check message zero the next iteration
                # starts from this one's state and repeats it, up to the cap.
                previous, iterations_used = posteriors, max_iterations
                break

        _check_finite(c2v)
        return posteriors, previous, converged, iterations_used
    finally:
        plan.idle.append(workspace)


def _check_finite(c2v):
    """Raise if a check message is not finite (see ``_flood``)."""
    if not np.isfinite(c2v).all():
        raise FloatingPointError("non-finite check message despite clamping")


def _leave_one_out(t_cols, out_cols):
    """The column multiplications that set each column of a check group to
    the product of the other columns, as ``(a, b, out)`` triples in order.

    ``t_cols`` and ``out_cols`` are the columns of a (checks, degree) block
    with degree >= 3. Column k gets the product of columns 0..k-1 times the
    product of columns degree-1..k+1, each multiplied in one column at a
    time in that order: the same chain of roundings as a forward and a
    backward ``np.cumprod`` along each row. The prefix products of columns
    0..j go to scratch columns, except that of 0..degree-2, which is the
    last column's own product and goes straight to ``out_cols[-1]``; the
    running suffix product goes to one more scratch column and its last
    step to ``out_cols[0]``.
    """
    degree = len(t_cols)
    rows = len(t_cols[0])
    # prefixes[j] receives the product of columns 0..j
    prefixes = [t_cols[0], *np.empty((degree - 3, rows)), out_cols[-1]]
    suffix = np.empty(rows)
    steps = [(prefixes[k - 1], t_cols[k], prefixes[k]) for k in range(1, degree - 1)]
    running = t_cols[-1]
    for k in range(degree - 2, 0, -1):
        steps.append((prefixes[k - 1], running, out_cols[k]))
        following = out_cols[0] if k == 1 else suffix
        steps.append((running, t_cols[k], following))
        running = following
    return steps
