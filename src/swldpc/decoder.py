"""Joint sum-product decoding of two syndrome-compressed correlated sources.

The decoder's graph contains the Tanner graphs of both codes plus, for every bit
position i, a correlation check enforcing u1[i] + u2[i] + z[i] = 0 over
GF(2), where z[i] is the hidden error bit of the source pair. The paper
draws z[i] as a degree-1 variable node whose prior is the constant
hidden-bit LLR; here that node is folded into its check, which has degree 2
and carries the hidden LLR as a check-local parameter. Because a degree-1
variable always emits its prior, both graphs exchange the same messages on
the u1/u2 edges, up to the rounding of the variable update (below); the
tests keep the explicit graph as an oracle.

Node ids are assigned deterministically so traces are comparable across
runs: variables are the u1 block [0, n) and the u2 block [n, 2n); checks
are code-1 rows [0, m1), code-2 rows [m1, m1+m2) and correlation checks
[m1+m2, m1+m2+n). Edges are listed check-major with ascending variable
ids inside each check; the kernel holds them in its own order (below).

Messages are LLRs under the convention L(x) = ln(P(x=0)/P(x=1)), so a
positive value favors bit 0. The schedule is flooding: every iteration
updates all variable-to-check messages, then all check-to-variable
messages, then the posteriors. Variable messages are clamped to
+/- LLR_MAX, and check messages stay inside that bound (see the kernel
notes below).

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
  correlation checks use b = 0 and f = tanh(llr/2), which stands in for
  the folded hidden-bit node. The kernel multiplies each slot by its
  check's (1-2b) f, which its workspace holds (below).

The kernel's edge order is position-major (``_KernelPlan``): the codes'
row blocks (``SparseParityMatrix._row_blocks``), h1's then h2's, and one
block of the correlation checks, each a contiguous ``(degree, checks)``
run of slots whose row k holds entry k of every check. So the known-u1
graph's edges are h2's row blocks, and every graph of every code has one
edge order, with no permutation in the loop. A degree-1 check's product
is empty (1); a degree-2 check passes each edge its partner's value; for
larger degrees the leave-one-out products are built row by row, prefix
products from the first row and suffix products from the last, each
multiplied in the same order as a forward and a backward ``np.cumprod``
along the check and then joined by one multiplication, so it rounds
exactly as the cumulative products did. A posterior is an ordered
gather-sum over a staircase of slots: its messages in check-major order
and then its prior, rounding exactly as ``np.bincount`` plus the priors
(see ``_stair_sums``). The kernel numbers the variables lightest first,
so that the k-th messages of all variables with more than k are one run
and each row of the staircase is one addition; it renumbers them only
where the degrees fall somewhere along the ids, and maps the priors in
and the posteriors out once per frame. The slot of every entry and each code's
staircase are built once per code and kept on the matrix
(``SparseParityMatrix._slots``), so a graph built per call builds its
known-u1 plan by concatenation and copying alone.

The kernel (``_flood``) holds messages, priors and posteriors in half-LLR
units, m/2 clamped at +/- LLR_MAX/2, so tanh(m/2) and 2 atanh need no
scaling pass. It is the only code that converts units: it halves the
LLR priors it is given and doubles the posteriors that leave the loop,
at its exit and for its record; scaling by 2 is exact in binary floating
point short of the subnormal range, so every output equals the
full-unit rule bit for bit. It keeps one buffer per message, on every
frame: the variable messages, which become their tanh in place, the
leave-one-out products and the check messages. A damped frame builds its
new check messages in the first, once the products have read it, and
mixes them into the last in place, damping times the old plus
(1 - damping) times the new. The atanh argument needs no clip:
it is at most tanh(LLR_MAX/2) (``_TANH_LIMIT``) in magnitude, since every
tanh value is (the tests pin numpy's tanh to that bound at and near the
clamp) and |f| <= 1, and a degree-1 check, always a code check (f = 1),
has its empty product stored as that bound. So 2 atanh of it, and a
damped mix of two such values, stay inside LLR_MAX, and check messages
need no clamp of their own. Check messages are tested for finiteness
when the loop exits, not in every iteration: a NaN check message makes
its variable's posterior NaN, so some check message stays NaN in every
later iteration and the test still raises. That one test suffices for a
traced decode too, whose record holds entries of earlier iterations:
``decode`` returns a trace only from a call that returns.
Each iteration ends with the gather of its posteriors to the slots, which
the next iteration's variable update starts from and the convergence test
reads.

A graph stores its codes and model; its edge list and plans are built on
first use and kept by that graph alone. The kernel's message buffers,
with the row views and scratch of the check update, and the frame's
syndrome (``_Workspace``), are built once per plan and kept in it
between frames: the joint decode's in the graph's ``_plan``, the
known-u1 decode's in its ``_known_u1``. So graphs over one code share no
buffers. A decode checks the buffers out of the plan's ``idle`` slot
with an atomic ``deque.pop`` and puts them back when it returns, also on
an exception, so a decode that starts meanwhile on another thread finds
none and builds its own; results never depend on which buffers a decode
gets.
Every buffer starts on a page boundary (``_page_aligned``), as do the
plan's index arrays ``edge_var`` and ``var_slots``: in an in-process
A/B, whole decodes took 3-15 % less CPU time on such buffers than on
malloc's placement, 16 bytes apart modulo 4096 (n = 1024 at p = 0.92
and 0.96, and the CLI decode at n = 16384). The loop makes the same
numpy calls on the same values wherever the buffers lie, so results
never depend on their placement.
The workspace is the one home of a frame's syndrome, which the kernel
reads in two forms: the sign of every code slot, and the bits of the
convergence test. ``_Workspace.load`` takes the frame's bits once, in
the order of the code blocks, and copies each block's row of bits and
broadcasts its signs into buffers built with the workspace, so a frame
allocates none; the correlation slots hold f from the start.

Hard decisions take bit 1 where the posterior is strictly negative, so an
exactly zero posterior resolves to 0. The convergence test needs only the
code checks (the correlation checks hold by construction of z_hat): it
counts the rows whose syndrome of the hard decisions differs from the
received bit, h1 over the u1 block and h2 over the u2 block
(``_Workspace.unsatisfied``). It reads the signs of the posteriors that
the kernel has gathered to the code blocks' slots for the next iteration
into a ``(degree + 1, checks)`` buffer per block, whose last row holds
the block's bits, and xor-reduces it down its rows, so it needs no
gather of its own. A row without entries has syndrome bit 0, so it fails
exactly when its received bit is 1: such rows form one more block, of
degree 0, whose buffer holds their bits alone. It exists only where some
row is empty, since each block costs numpy calls in every iteration, and
each block has a buffer of its own degree, so that a code with one dense
row does not reduce that row's weight in rows over every check.

Known u1 (the corner point). When h1 is the n x n identity, rows in
order, u1 is sent raw and s1 is u1. ``decode`` then runs the same kernel
on H2 alone (``JointTannerGraph._known_u1``, a plan built without the
joint edges), 3n edges where the corner graph has 6n. This
is the side-information decoder of Liveris, Xiong and Georghiades (IEEE
Commun. Lett., 2002), and it returns bit for bit what the joint graph
returns:

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
  indexed by the u1 bit, +/- c_id (``_IDENTITY_BY_BIT``) and +/- q
  (``JointTannerGraph._known_u1_priors``), each ``_SIGN`` times one
  ``_check_message``, which is exact. ``decode`` returns iteration 1 in
  closed form where the budget is 1, or where early stop is on and it
  converged; the u1 rebuild below then reads u2 messages of 0.0 and adds
  +/-0.0 to +/- c_id.
  Iteration 2 is the kernel's start state. Its u2 posteriors are the
  priors q (1 - 2 u1) plus 0.0, as the joint graph sums them from H2
  messages that are all zero (so a prior of -0.0, where q = 0 at p = 0.5,
  gives +0.0), and the kernel tests them on the gather that iteration 3
  starts from. Where the budget is 2, or early stop is on and they hold,
  the decode exits there, and the u1 rebuild below has L_prev those
  posteriors: v = 0.0, which adds 2 atanh(f tanh(0)) = +/-0.0 to
  +/- c_id, iteration 2's u1 posteriors bit for bit.
* From joint iteration 3 on, the u2 edges carry exactly what H2 alone
  carries with priors q (1 - 2 u1). The kernel numbers its iterations
  from 3, as the joint graph does.
* ``u1_hat`` is a copy of s1, since by the first bullet every u1
  posterior has the sign of c_id (1 - 2 u1). ``u2_hat`` is the sign of
  the kernel's posteriors. ``posterior_llrs[:n]`` is rebuilt only when the
  result's ``posterior_llrs`` is first read, as the joint graph sums it:
  c_id (1 - 2 u1) plus one correlation message, 2 atanh(f tanh(v/2)),
  where v = L_prev - q (1 - 2 u1) and L_prev is the u2 posterior of the
  iteration before the last (that of iteration 2, if the loop ran once
  or not at all). A trial loop that reads only the hard decisions, as
  ``run_trials`` and ``swldpc decode`` do, never builds it.
* A traced decode records the joint graph's iterations: iteration 1 in
  closed form (its unsatisfied checks are the ones of s2, and L_prev is
  the priors), iteration 2 from the kernel's test of its start state,
  and each later one from the kernel. Each entry is reduced to its mean
  |posterior| where it is recorded, from the 2n posteriors that the rule
  of ``posterior_llrs`` above builds, with L_prev the u2 posteriors of
  the iteration before (``_trace_entry``). So ``--trace`` watches the
  decode it reports on, and holds O(n) memory whatever the budget.

The joint graph runs instead when damping is positive (the correlation
message then ramps up instead of being constant), and for graphs the
reduction rejects: an H2 with a degree-1 row and any other h1, the
identity's rows in another order included. An H2 without entries is
decoded on the plan: its kernel has no slots, and a frame stalls in its
first iteration.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .correlation import LLR_MAX, CorrelationModel, _is_finite_real, hidden_llr
from .ldpc import SparseParityMatrix, _boolean, _check_type, _column_slots, _integer, as_bit_array

# The one graph form, the folded one; the field ``JointTannerGraph.form``
# takes no other value.
FOLDED_Z = "folded"

# Largest magnitude tanh(m/2) can reach under the message clamp, the bound
# of every atanh argument (see the module notes).
_TANH_LIMIT = float(np.tanh(LLR_MAX * 0.5))

# 1 - 2 b for a bit b, by table lookup
_SIGN = np.array([1.0, -1.0])


def _check_message(factor, m):
    """2 atanh(f tanh(m/2)), elementwise: what a degree-2 check of factor f
    sends one of its variables when the other sends m. Computed in place
    on ``m``, a float64 array (0-d for one value), which it returns. The
    kernel (``_flood``) computes it in its own buffers; this is every
    other place."""
    np.tanh(np.multiply(m, 0.5, out=m), out=m)
    np.arctanh(np.multiply(m, factor, out=m), out=m)
    return np.multiply(m, 2.0, out=m)


# A degree-1 code check's message +c_id or -c_id, indexed by its syndrome
# bit: its empty product is stored as _TANH_LIMIT = tanh(LLR_MAX/2), so
# c_id is the message of a check of factor 1 fed LLR_MAX. It does not
# depend on the model.
_IDENTITY_BY_BIT = _SIGN * _check_message(1.0, np.array(LLR_MAX))


@dataclass(frozen=True, eq=False)
class JointTannerGraph:
    """Immutable structure of the joint decoding graph for two codes over
    correlated sources; ``build_joint_graph`` is this class.

    Args:
        h1: code for the first source (identity for the uncompressed
            corner point).
        h2: code for the second source; must have the same block length.
        model: correlation model; its hidden-bit LLR becomes the
            correlation-check parameter.
        form: FOLDED_Z, the only form.

    The constructor checks ``form``, that the codes are
    ``SparseParityMatrix`` objects of one block length and that ``model``
    is a ``CorrelationModel``; the sizes are read off the fields.
    Everything else is built on first use and kept by the graph:
    ``_corr_factor``, f = tanh(llr/2) of the correlation checks, which
    every plan and known-u1 frame reads; ``edge_var`` and the kernel plan
    ``_plan`` of the joint graph; and for the known-u1 path the plan of
    H2 alone, ``_known_u1``, and its priors table ``_known_u1_priors``. A
    graph that only takes the known-u1 path never builds the joint
    structure.
    """

    h1: SparseParityMatrix
    h2: SparseParityMatrix
    model: CorrelationModel
    form: str = FOLDED_Z

    def __post_init__(self):
        if self.form != FOLDED_Z:
            raise ValueError(f"unknown graph form {self.form!r}")
        _check_type("h1", self.h1, SparseParityMatrix)
        _check_type("h2", self.h2, SparseParityMatrix)
        if self.h1.n != self.h2.n:
            raise ValueError(f"codes disagree on block length: {self.h1.n} vs {self.h2.n}")
        _check_type("model", self.model, CorrelationModel)

    @property
    def n(self) -> int:
        return self.h1.n

    @property
    def m1(self) -> int:
        return self.h1.m

    @property
    def m2(self) -> int:
        return self.h2.m

    @property
    def num_edges(self) -> int:  # code edges, then one correlation edge per variable
        return len(self.h1.entries[0]) + len(self.h2.entries[0]) + 2 * self.n

    @cached_property
    def _corr_factor(self) -> float:  # f of the correlation checks
        return float(np.tanh(hidden_llr(self.model) * 0.5))

    # Check-major: h1 rows, h2 rows, then one correlation check per index
    # attached to u1[i] and u2[i].

    @cached_property
    def edge_var(self) -> np.ndarray:
        n = self.n
        corr = np.arange(n, dtype=np.int64)[:, None] + np.array([0, n])
        return np.concatenate([self.h1.entries[0], self.h2.entries[0] + n, corr.ravel()])

    @cached_property
    def _plan(self) -> "_KernelPlan":
        h1, h2, n = self.h1, self.h2, self.n
        shift = len(h1.entries[0])
        code_edges = shift + len(h2.entries[0])
        blocks = (*h1._row_blocks, *((block + n, rows + h1.m) for block, rows in h2._row_blocks))
        corr = np.arange(2 * n).reshape(2, n)  # column i: u1[i] and u2[i]
        # correlation check i's edges are code_edges + 2i and code_edges + 2i + 1
        slot_of_edge = np.concatenate(
            [h1._slots[0], h2._slots[0] + shift, code_edges + corr.T.ravel()]
        )
        columns = _column_slots(self.edge_var, slot_of_edge, 2 * n)
        return _KernelPlan(blocks, (corr, self._corr_factor), 2 * n, slot_of_edge, *columns)

    @cached_property
    def _known_u1(self) -> "_KernelPlan | None":
        """The kernel plan of H2 alone, which decodes this graph when u1 is
        known, built without the joint edges, or None where the reduction
        does not apply (see the module notes). Its variables are the u2
        block numbered from 0, its checks the h2 rows and its slots h2's row
        blocks and slots, which h2 keeps."""
        ids = np.arange(self.n)
        if not all(np.array_equal(a, ids) for a in self.h1.entries):
            return None
        if any(len(block) == 1 for block, _ in self.h2._row_blocks):
            return None
        return _KernelPlan(self.h2._row_blocks, None, self.n, *self.h2._slots)

    @cached_property
    def _known_u1_priors(self) -> np.ndarray:
        """A correlation check's message to u2 when u1 is known, indexed by
        the u1 bit: +q and -q. Taken by u1 bit, those are the u2 posteriors
        of joint iteration 2 and the priors from which ``_flood`` runs the
        ``_known_u1`` plan, numbering its iterations from 3 (see the module
        notes)."""
        q = _check_message(self._corr_factor, np.array(_IDENTITY_BY_BIT[0]))
        return _SIGN * q


build_joint_graph = JointTannerGraph


class _KernelPlan:
    """The decode kernel's layout of one graph, position-major.

    Checks are grouped by degree into blocks: the codes' row blocks
    (``SparseParityMatrix._row_blocks``), h1's then h2's, and for the joint
    graph one more block of the correlation checks, which never shares a
    group with code checks. A block of c checks of degree d is a ``(d, c)``
    run of slots whose row k holds entry k of every check, one slot per
    edge; ``check_groups`` holds one ``(degree, start, stop)`` slot range
    per block. ``parity_groups`` holds a ``(degree, start, rows)`` triple
    per code block, which come first: its degree, its first slot and its
    checks (h1 rows, then h2 rows). Where some code checks have no entries
    they follow as one more triple of degree 0, which has no slots but
    holds its checks' bits for the convergence test; a graph without such
    checks has none, as each block costs numpy calls every iteration.
    ``corr_factor`` is the factor f of the correlation checks, or None.
    ``edge_var`` maps each slot to its variable and ``slot_of_edge`` each
    edge of the check-major order to its slot.

    The kernel numbers the variables by degree, lightest first, ties by id:
    ``variables`` lists the variable at each kernel position, or is None
    where that is the variable's own id, as in every graph that
    ``build_joint_graph`` makes from codes of regular column weight (the
    corner graph's u1 has degree 2 and its u2 degree 4); ``edge_var``
    holds kernel positions. ``var_slots`` is a staircase of slots whose
    row k holds the slot of the k-th edge, in check-major order, of every
    variable of degree above k, the last ``var_counts[k]`` kernel
    positions (``ldpc._column_slots``). Both index arrays are copies that
    start on a page boundary, as the workspace buffers do. ``idle`` keeps
    the kernel's workspace for this plan between decodes, at most one
    (see ``_flood``).

    Args:
        code_blocks: the codes' ``(block, rows)`` pairs, variables and
            checks already numbered within the graph, empty ones included.
        corr: the ``(2, n)`` block of the correlation checks and their
            factor f, or None.
        num_vars: number of variables.
        slot_of_edge: the slot of every edge in check-major order.
        order, counts, staircase: ``ldpc._column_slots`` over
            ``slot_of_edge``.
    """

    def __init__(self, code_blocks, corr, num_vars, slot_of_edge, order, counts, staircase):
        code = [(block, rows) for block, rows in code_blocks if len(block)]
        blocks, self.corr_factor = [block for block, _ in code], None
        if corr is not None:
            corr_block, self.corr_factor = corr
            blocks.append(corr_block)
        starts = np.cumsum([0] + [block.size for block in blocks]).tolist()
        self.check_groups = tuple(zip([len(block) for block in blocks], starts, starts[1:]))
        parity = tuple((len(block), start, rows) for (block, rows), start in zip(code, starts))
        empty = _flat(rows for block, rows in code_blocks if not len(block))
        # the checks without entries have no slots, so any first slot will do
        self.parity_groups = (*parity, (0, 0, empty)) if len(empty) else parity
        self.slot_of_edge, self.num_vars, self.var_counts = slot_of_edge, num_vars, counts
        edge_var = _flat(blocks)
        self.variables = order
        if order is not None:  # the inverse permutation gives each id's position
            edge_var = np.argsort(order)[edge_var]
        self.edge_var = _page_aligned(len(edge_var), dtype=np.int64, fill=edge_var)
        self.var_slots = _page_aligned(len(staircase), dtype=np.int64, fill=staircase)
        self.idle = deque(maxlen=1)

    def kernel_order(self, values: np.ndarray) -> np.ndarray:
        """Per-variable ``values`` by kernel position."""
        return values if self.variables is None else values.take(self.variables)

    def by_id(self, values: np.ndarray) -> np.ndarray:
        """Per-variable ``values`` given by kernel position, by variable id:
        ``values`` itself where the positions are the ids, else a new
        array."""
        if self.variables is None:
            return values
        out = np.empty_like(values)
        out[self.variables] = values
        return out


def _flat(arrays) -> np.ndarray:
    """The integer arrays raveled and joined into one, empty if none."""
    return np.concatenate([np.zeros(0, np.int64), *(array.ravel() for array in arrays)])


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
        object.__setattr__(self, "early_stop", _boolean("early_stop", self.early_stop))


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """The outcome of one ``decode``.

    ``u1_hat`` and ``u2_hat`` are the hard decisions, bit 1 where a
    posterior is negative. ``z_hat``, the hidden bits u1_hat xor u2_hat,
    and ``posterior_llrs``, the posteriors, the u1 block then the u2
    block (length 2n), are built when first read and kept:
    ``posterior_llrs`` by ``build_posteriors``. The joint graph sums every
    posterior in the loop, so its ``build_posteriors`` only hands them
    over. On the known-u1 path ``u1_hat`` is a copy of s1, which is the
    sign of u1's posteriors in every iteration (see the module notes), so
    the u1 posteriors are rebuilt only where they are read.

    ``trace`` is None, or for a traced decode one pair per iteration
    1..``iterations_used``: the unsatisfied code checks and the mean
    |posterior| of the joint graph's 2n posteriors, on every path.
    """

    u1_hat: np.ndarray
    u2_hat: np.ndarray
    converged: bool
    iterations_used: int
    build_posteriors: Callable[[], np.ndarray] = field(repr=False)
    trace: Optional[tuple[tuple[int, float], ...]] = None

    @cached_property
    def z_hat(self) -> np.ndarray:
        return self.u1_hat ^ self.u2_hat

    @cached_property
    def posterior_llrs(self) -> np.ndarray:
        return self.build_posteriors()


def decode(
    graph: JointTannerGraph,
    s1,
    s2,
    config: Optional[DecoderConfig] = None,
    *,
    trace: bool = False,
) -> DecodeResult:
    """Run joint belief propagation for one pair of syndromes.

    Args:
        graph: joint Tanner graph.
        s1: syndrome of the first source, length graph.m1.
        s2: syndrome of the second source, length graph.m2.
        config: decoder settings; defaults to DecoderConfig().
        trace: a bool; when true, the result's ``trace`` records every
            iteration. It does not change the path the decode takes, nor
            its result. Each iteration is reduced to its pair where it
            runs, so a traced decode holds O(n) memory, as a plain one
            does, and its trace 2 numbers per iteration.

    Returns:
        DecodeResult. ``converged`` is True iff the returned hard
        decisions reproduce both syndromes; the correlation checks are
        satisfied by construction through z_hat = u1_hat xor u2_hat.
    """
    _check_type("graph", graph, JointTannerGraph)
    config = DecoderConfig() if config is None else config
    _check_type("config", config, DecoderConfig)
    trace = _boolean("trace", trace)
    s1, s2 = as_bit_array(s1, graph.m1), as_bit_array(s2, graph.m2)
    record = [] if trace else None
    result = _decode(graph, s1, s2, config, record)
    return result if record is None else replace(result, trace=tuple(record))


def _decode(graph, s1, s2, config, record=None) -> DecodeResult:
    """``decode`` on arguments already checked: syndromes as uint8 arrays
    of the graph's lengths, which it does not keep. ``record``, a list or
    None, takes one ``(unsatisfied checks, mean |posterior|)`` entry for
    every iteration, the trace of ``decode``, as ``_trace_entry`` makes
    them from the joint graph's 2n posteriors on both paths."""
    if config.damping == 0.0 and graph._known_u1 is not None:
        return _decode_known_u1(graph, s1, s2, config, record)
    posteriors, _, converged, iterations_used = _flood(
        graph._plan, np.concatenate([s1, s2]), np.zeros(2 * graph.n), config, record=record
    )
    hard = np.less(posteriors, 0).view(np.uint8)
    u1_hat, u2_hat = hard[: graph.n], hard[graph.n :]
    return DecodeResult(u1_hat, u2_hat, converged, iterations_used, partial(np.asarray, posteriors))


def _decode_known_u1(graph, s1, s2, config, record) -> DecodeResult:
    """``decode`` on a graph whose u1 block is s1, on the graph's
    ``_known_u1`` plan and priors (see the module notes). One rule,
    ``build``, gives the joint graph's 2n posteriors from the last two u2
    states, for the result and for every iteration that ``record`` takes:
    iteration 1 in closed form, iteration 2 from the test of the kernel's
    start state and every later one from the kernel."""
    u1_hat = s1.copy()
    priors = graph._known_u1_priors.take(s1)  # the u2 posteriors of iteration 2
    build = partial(_known_u1_posteriors, graph._corr_factor, u1_hat, priors)
    converged, iterations_used = not s2.any(), 1  # iteration 1's test, where u2 is 0
    if record is not None:  # iteration 1, whose u2 posteriors and messages are 0.0
        record.append(_trace_entry(int(np.count_nonzero(s2)), build, priors, np.zeros(len(s1))))
    if config.max_iterations == 1 or config.early_stop and converged:
        previous, posteriors = priors, np.zeros(len(s1))
    else:
        posteriors, previous, converged, iterations_used = _flood(
            graph._known_u1, s2, priors, config, 3, record, build
        )
    u2_hat = np.less(posteriors, 0).view(np.uint8)
    return DecodeResult(u1_hat, u2_hat, converged, iterations_used,
                        partial(build, previous, posteriors))


def _known_u1_posteriors(corr_factor, u1, priors, previous, posteriors) -> np.ndarray:
    """The posteriors of the known-u1 decode as the joint graph sums them:
    the u2 posteriors ``posteriors`` after u1's, each c_id (1 - 2 u1) plus
    the last iteration's correlation message to u1, built from the u2
    messages of the iteration before (``previous`` minus ``priors``). The
    arguments are left as they are. Where ``previous`` equals ``priors``
    those messages are 0.0, as in iterations 1 and 2."""
    v = np.subtract(previous, priors)
    v.clip(-LLR_MAX, LLR_MAX, out=v)
    np.add(_IDENTITY_BY_BIT.take(u1), _check_message(corr_factor, v), out=v)
    return np.concatenate([v, posteriors])


class _Workspace:
    """The message buffers of ``_flood`` for one plan, kept across frames.

    ``t``, ``excl`` and ``c2v`` hold one value per slot of the plan, one
    buffer per message, whether or not the frame is damped or traced:
    ``t`` the variable messages, turned into their tanh in place, ``excl``
    the leave-one-out products and ``c2v`` the check messages. Once the
    check update has read ``t``, a damped frame builds its new check
    messages there and mixes them into ``c2v`` in place; then ``t`` takes
    the check messages in the order of the staircase ``plan.var_slots``
    and then the posteriors gathered to the slots, which the next
    iteration starts from. The check update of every check-degree group
    of degree 2 or more is spelled out once, on row views of the blocks:
    ``copies`` holds the ``(target, source)`` row pairs of the degree-2
    groups, and ``products`` the ``(a, b, out)`` row multiplications of
    the larger ones, in order (see ``_leave_one_out``).
    Degree-1 entries of ``excl`` hold ``_TANH_LIMIT`` from the start and
    are never written, so they need no reset between frames; ``c2v`` is
    zeroed at the start of every frame and every other buffer is written
    before it is read. ``posteriors`` is a pair of buffers that the
    iterations take in turn, so that the last one's stays intact, and
    ``sums`` the steps that fill each (see ``_stair_sums``); ``base``
    takes the frame's priors plus 0.0, the posteriors the loop starts
    from.

    The workspace is also the one home of the frame's syndrome, which
    ``load`` fills at the start of every frame. ``signs`` holds each
    slot's target-parity sign times its check factor f: the correlation
    block (parity 0) holds f from the start and is never written, and the
    code slots (f = 1) take their check's sign, broadcast down its block.
    ``bits`` and ``check_signs`` hold the code checks' bits and signs in
    the order of the plan's ``parity_groups`` (``rows``), and ``loads``
    the ``(target, source)`` pairs that copy them into the blocks.
    ``parity`` holds per parity group its slice of ``t``, the flat view of
    the first ``degree`` rows of its bool ``(degree + 1, checks)`` buffer,
    that buffer, whose last row holds the checks' bits, and a row for the
    violated checks (see ``unsatisfied``).

    Every buffer, the check update's scratch included, comes from
    ``_page_aligned`` and starts on a page boundary, also where it is
    empty, as ``bits`` is in a graph without code checks; the row views
    are views of these. Whole decodes took 3-15 % less CPU time on such
    buffers than on malloc's placement (see the module notes); results
    never depend on where the buffers lie.
    """

    def __init__(self, plan):
        num_edges = len(plan.edge_var)
        self.t = _page_aligned(num_edges)
        self.excl = _page_aligned(num_edges, fill=_TANH_LIMIT)
        self.c2v = _page_aligned(num_edges)
        self.copies, self.products = [], []
        for degree, start, stop in plan.check_groups:
            t_rows = self.t[start:stop].reshape(degree, -1)
            out_rows = self.excl[start:stop].reshape(degree, -1)
            if degree == 2:
                self.copies += [(out_rows[0], t_rows[1]), (out_rows[1], t_rows[0])]
            elif degree > 2:
                self.products += _leave_one_out(list(t_rows), list(out_rows))
        self.var_slots = plan.var_slots
        self.base = _page_aligned(plan.num_vars)
        self.posteriors = (_page_aligned(plan.num_vars), _page_aligned(plan.num_vars))
        self.sums = [_stair_sums(plan.var_counts, self.t, self.base, buffer)
                     for buffer in self.posteriors]
        self.signs = _page_aligned(num_edges)
        if plan.corr_factor is not None:  # the last block
            self.signs[plan.check_groups[-1][1] :] = plan.corr_factor
        self.rows = _flat(rows for _, _, rows in plan.parity_groups)
        self.bits = _page_aligned(len(self.rows), dtype=bool)
        self.check_signs = _page_aligned(len(self.rows))
        self.loads, self.parity, end = [], [], 0
        for degree, start, rows in plan.parity_groups:
            checks, part = len(rows), slice(end, end + len(rows))
            slots, end = slice(start, start + degree * checks), part.stop
            buffer = _page_aligned(degree + 1, checks, dtype=bool)
            self.loads += [(buffer[degree], self.bits[part]),
                           (self.signs[slots].reshape(degree, checks), self.check_signs[part])]
            violated = _page_aligned(checks, dtype=bool)
            self.parity.append((self.t[slots], buffer[:degree].reshape(-1), buffer, violated))

    def load(self, bits):
        """Take a frame's syndrome ``bits`` of the plan's code checks, as
        ``as_bit_array`` returns them: once in the order of the parity
        groups, then each group's row of bits and its broadcast signs."""
        bits.view(bool).take(self.rows, out=self.bits, mode="clip")
        _SIGN.take(self.bits, out=self.check_signs, mode="clip")
        for target, source in self.loads:
            np.copyto(target, source)

    def unsatisfied(self) -> int:
        """The number of code checks that the hard decisions of the
        posteriors gathered in ``t`` violate: a check is violated where
        the xor of its slots' signs (negative posteriors) differs from its
        bit, so one xor reduction down each group's buffer leaves 1 on the
        violated checks. A check without entries has parity 0, so it is
        violated exactly when its bit is 1."""
        count = 0
        for gathered, slots, buffer, violated in self.parity:
            np.less(gathered, 0, out=slots)
            np.bitwise_xor.reduce(buffer, axis=0, out=violated)
            count += np.count_nonzero(violated)
        return int(count)


# The alignment of every workspace buffer, one memory page.
_PAGE = 4096


def _page_aligned(*shape, dtype=float, fill=None) -> np.ndarray:
    """A new array of ``shape`` and ``dtype`` whose data starts on a page
    boundary (see ``_Workspace``), also where it is empty: set to ``fill``,
    a value or an array, where that is given, else not initialised. It
    takes only ``ctypes.data``, slicing and ``view``, which numpy 1.24 has."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + _PAGE, np.uint8)
    # cut the start first: an empty slice of raw starts where raw does
    out = raw[-raw.ctypes.data % _PAGE :][:nbytes].view(dtype).reshape(shape)
    if fill is not None:
        out[...] = fill
    return out


def _stair_sums(counts, t, base, out):
    """The steps, ``(function, args)`` pairs, that fill ``out`` with the
    posteriors: the staircase rows of the check messages in ``t`` (row k
    the k-th message of the last ``counts[k]`` variables) added in order,
    then ``base``; a variable without messages takes its ``base``.

    ``base`` is the priors plus 0.0, which turns -0.0 into +0.0, and the
    sums round exactly as ``np.bincount`` of the messages plus the priors:
    the bincount starts each sum from +0.0, which changes the sum only
    where every message is -0.0, and then that -0.0 plus the prior equals
    +0.0 plus the prior, unless the prior is -0.0 too, which ``base`` has
    turned into +0.0.
    """
    num_vars, rows, stop = len(out), [], 0
    for count in counts:
        start, stop = stop, stop + count
        rows.append((num_vars - count, t[start:stop]))
    head = rows[0][0] if rows else num_vars
    steps = [(np.copyto, (out[:head], base[:head]))] if head else []
    if len(rows) == 1:
        steps.append((np.copyto, (out[head:], rows[0][1])))
    elif rows:
        (first, row), (second, following) = rows[:2]
        if second > first:  # variables with one message
            steps.append((np.copyto, (out[first:second], row[: second - first])))
        steps.append((np.add, (row[second - first :], following, out[second:])))
        steps += [(np.add, (out[start:], row, out[start:])) for start, row in rows[2:]]
    if head < num_vars:
        steps.append((np.add, (out[head:], base[head:], out[head:])))
    return steps


def _sum_messages(workspace, c2v, turn) -> np.ndarray:
    """The posteriors, by kernel position, in the workspace's buffer
    ``turn``: each variable's check messages ``c2v`` in check-major order,
    then its prior (see ``_stair_sums``). The messages are gathered along
    the staircase of slots into ``workspace.t``, which the check update
    has done with."""
    c2v.take(workspace.var_slots, out=workspace.t, mode="clip")
    for step, args in workspace.sums[turn]:
        step(*args)
    return workspace.posteriors[turn]


def _flood(plan, bits, priors, config, first=1, record=None, joint=None):
    """The flooding loop over one graph's edges, the decode kernel, and the
    only code that knows its formats: half-LLR units, the kernel's
    variable order and its slot order.

    ``plan`` is the graph's ``_KernelPlan``, ``bits`` the frame's syndrome
    of the plan's code checks, as ``as_bit_array`` returns it, and
    ``priors`` one LLR per variable, by id. The iterations are numbered
    from ``first`` up to ``config.max_iterations``, with ``config``'s
    damping and early stop. The loop starts from the priors plus 0.0, as
    it sums a posterior from no messages. Where ``first`` > 1 those are the
    posteriors of iteration ``first - 1``: they are tested on the gather
    that iteration ``first`` starts from, and the loop does not run where
    that test ends the decode or the budget ends before ``first``.
    ``record``, a list or None, takes one ``(unsatisfied checks, mean
    |posterior|)`` entry for each iteration the call tests, in order,
    made by ``_trace_entry`` as the iteration is tested, so the record
    holds no array: the mean is over the joint graph's posteriors, which
    ``joint``, a function or None, builds from the posteriors of the
    iteration before and of this one, LLRs by id (the start state is its
    own iteration before); where ``joint`` is None they are the
    iteration's own. A recorded frame takes the path of a plain one. A
    stalled loop exits after one iteration, recorded or not, and appends
    that iteration's entry once for each iteration up to the cap, as the
    full loop would have.

    Messages, priors and posteriors are held in half-LLR units, the atanh
    argument is not clipped, and check messages are tested for finiteness
    only where the loop exits (see the module notes). Each iteration ends
    with the gather of its posteriors to the slots, which the next
    iteration starts from and the convergence test reads.

    The buffers come from the plan's idle workspace (see ``_Workspace``),
    checked out for the length of the call, so a decode that runs
    meanwhile on another thread builds its own. The frame's ``bits`` live
    there too: ``load`` puts them in the edge signs of the check update
    and in the buffers of the convergence test, so the loop allocates
    nothing per block or per slot for them.

    Returns the last posteriors and those of the iteration before (the
    start state after one iteration or none), both LLRs by variable id in
    new arrays, whether the last hard decisions satisfy every code check,
    and the number of the last iteration.
    """
    # Check the workspace out, so that a decode running meanwhile over the
    # same plan, on another thread, builds its own.
    try:
        workspace = plan.idle.pop()
    except IndexError:
        workspace = _Workspace(plan)
    workspace.load(bits)
    edge_var, signs, unsatisfied = plan.edge_var, workspace.signs, workspace.unsatisfied
    t, excl, c2v = workspace.t, workspace.excl, workspace.c2v
    damping, max_iterations = config.damping, config.max_iterations
    # a damped frame builds its new check messages in t, which the check
    # update has read, and mixes them into c2v
    new = t if damping > 0.0 else c2v
    c2v.fill(0.0)
    copies, products = workspace.copies, workspace.products
    # The posteriors of iteration first - 1, summed as the loop sums one
    # from no messages: the priors plus 0.0 (see _stair_sums).
    posteriors = previous = np.multiply(plan.kernel_order(priors), 0.5, out=workspace.base)
    np.add(posteriors, 0.0, out=posteriors)
    iterations_used = first - 1
    limit = LLR_MAX * 0.5
    try:
        posteriors.take(edge_var, out=t, mode="clip")
        # the test of the start state, iteration first - 1
        unsatisfied_checks = unsatisfied() if first > 1 else None
        converged = unsatisfied_checks == 0
        if record is not None and first > 1:
            start = plan.by_id(posteriors * 2.0)
            record.append(_trace_entry(unsatisfied_checks, joint, start, start))
        stop = iterations_used if converged and config.early_stop else max_iterations
        for iteration in range(first, stop + 1):
            # Variable update: each slot sends its variable's posterior,
            # gathered in t, minus its own incoming message.
            np.subtract(t, c2v, out=t)
            t.clip(-limit, limit, out=t)

            # Check update on the rows of the blocks: a degree-2 check
            # passes each edge its partner's value, larger degrees take
            # leave-one-out products.
            np.tanh(t, out=t)
            for target, source in copies:
                target[...] = source
            for a, b, out in products:
                np.multiply(a, b, out)  # a positional out skips keyword parsing
            np.multiply(signs, excl, out=new)
            np.arctanh(new, out=new)
            if damping > 0.0:
                np.multiply(new, 1.0 - damping, out=new)
                np.multiply(c2v, damping, out=c2v)
                np.add(c2v, new, out=c2v)

            previous = posteriors
            posteriors = _sum_messages(workspace, c2v, iteration % 2)
            posteriors.take(edge_var, out=t, mode="clip")

            # Convergence test on the gathered signs: z_hat = u1_hat xor
            # u2_hat satisfies every correlation check, so only the code
            # checks can be violated.
            unsatisfied_checks = unsatisfied()
            converged = unsatisfied_checks == 0
            done = converged and config.early_stop
            iterations_used = iteration
            if iteration == first and not done and not c2v.any():
                # Stalled: with every check message zero the next iteration
                # starts from this one's state and repeats it, up to the cap.
                previous, iterations_used = posteriors, max_iterations

            if record is not None:  # an entry for each iteration it stands for
                last = None if joint is None else plan.by_id(previous * 2.0)
                entry = _trace_entry(unsatisfied_checks, joint, last, plan.by_id(posteriors * 2.0))
                record += [entry] * (iterations_used + 1 - iteration)
            if done or iterations_used == max_iterations:
                break

        if not np.isfinite(c2v).all():
            raise FloatingPointError("non-finite check message despite clamping")
        # the posteriors leave in new arrays, as the buffers stay
        return plan.by_id(posteriors * 2.0), plan.by_id(previous * 2.0), converged, iterations_used
    finally:
        plan.idle.append(workspace)


def _trace_entry(unsatisfied_checks, joint, previous, posteriors) -> tuple[int, float]:
    """One entry of a decode's trace: an iteration's unsatisfied code
    checks and the mean |posterior| of the joint graph's 2n posteriors.
    ``joint`` builds those from ``previous`` and ``posteriors``, the
    posteriors of the iteration before and of this one, LLRs by id; where
    it is None they are ``posteriors`` itself. The entry keeps no array."""
    if joint is not None:
        posteriors = joint(previous, posteriors)
    return unsatisfied_checks, float(np.abs(posteriors).mean())


def _leave_one_out(t_rows, out_rows):
    """The row multiplications that set each row of a check block to the
    product of the other rows, as ``(a, b, out)`` triples in order.

    ``t_rows`` and ``out_rows`` are the rows of a (degree, checks) block
    with degree >= 3, row k holding entry k of every check. Row k gets the
    product of rows 0..k-1 times the product of rows degree-1..k+1, each
    multiplied in one row at a time in that order: the same chain of
    roundings as a forward and a backward ``np.cumprod`` along each check.
    The prefix products of rows 0..j go to scratch rows, except that of
    0..degree-2, which is the last row's own product and goes straight to
    ``out_rows[-1]``; the running suffix product goes to one more scratch
    row and its last step to ``out_rows[0]``. Every operand is one
    contiguous row, which numpy multiplies with the least overhead per call.
    The scratch rows are one block and the suffix row another, each
    starting on a page boundary (``_page_aligned``) as every workspace
    buffer does, on which decodes took 3-15 % less CPU time than on
    malloc's placement (see the module notes); the products never depend
    on where the rows lie.
    """
    degree = len(t_rows)
    checks = len(t_rows[0])
    # prefixes[j] receives the product of rows 0..j
    prefixes = [t_rows[0], *_page_aligned(degree - 3, checks), out_rows[-1]]
    suffix = _page_aligned(checks)
    steps = [(prefixes[k - 1], t_rows[k], prefixes[k]) for k in range(1, degree - 1)]
    running = t_rows[-1]
    for k in range(degree - 2, 0, -1):
        steps.append((prefixes[k - 1], running, out_rows[k]))
        following = out_rows[0] if k == 1 else suffix
        steps.append((running, t_rows[k], following))
        running = following
    return steps
