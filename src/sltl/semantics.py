"""The trust base: lasso models, the satisfaction relation and witness JSON.

A ``sat`` verdict is trusted because its witness satisfies the input
under ``evaluate``, which follows the satisfaction relation of SLTL on
ultimately periodic models clause by clause.  Traces are ultimately
periodic (a lasso: prefix plus repeating period) and every trace of a
model shares one shape, so Until has a finite backward fixpoint.
Restricted to the universal standpoint, the same relation is the one of
the product of linear time with S5: a product model is an SLTL model
whose only standpoint is ``@*``, and a product formula is one that
``check_product_formula`` accepts, evaluated by ``evaluate``, which keeps
one integer mask per subformula over every (trace, lasso node) cell and
reads the formula's flat program, the one walk ``syntax`` memoises on it.
This module imports nothing of the package but ``syntax``, shares no code
with the engines it checks, and never recurses: ``syntax.py`` and this
file are all a reader audits to trust a witness.
"""

from __future__ import annotations

from .syntax import (
    And,
    Bottom,
    BoxS,
    DiamondS,
    Formula,
    Next,
    Not,
    Or,
    Prop,
    Sharper,
    Standpoint,
    Top,
    UNIVERSAL,
    Until,
    _FrozenRecord,
    _Record,
    fold,
    program,
)


class ModelError(ValueError):
    """Ill-formed model, or evaluation against a model that cannot host it."""


class WitnessFormatError(ValueError):
    """Witness JSON that does not match the documented schema."""


class UPTrace(_FrozenRecord):
    """Ultimately periodic trace: ``prefix`` then ``period`` forever."""

    __slots__ = ("prefix", "period")

    def __init__(self, prefix: tuple[frozenset[str], ...], period: tuple[frozenset[str], ...]):
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)
        if not period:
            raise ModelError("a trace needs a non-empty period")

    def valuation(self, i: int) -> frozenset[str]:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]


class SLTLModel(_Record):
    """A finite set of same-shaped traces plus the standpoint assignment.

    Immutable by convention after construction; nothing here mutates it.
    """

    __slots__ = ("traces", "lam", "prefix_len", "period_len")

    def __init__(
        self, traces: dict[str, UPTrace], lam: dict[Standpoint, frozenset[str]],
        prefix_len: int, period_len: int,
    ):
        self.traces = traces
        self.lam = lam
        self.prefix_len = prefix_len
        self.period_len = period_len
        if not traces:
            raise ModelError("a model needs at least one trace")
        ids = frozenset(traces)
        for tid, tr in traces.items():
            if len(tr.prefix) != prefix_len or len(tr.period) != period_len:
                raise ModelError(f"trace {tid!r} does not match the shared shape")
        if lam.get(UNIVERSAL) != ids:
            raise ModelError("the universal standpoint must cover every trace")
        for sp, members in lam.items():
            if not members:
                raise ModelError(f"standpoint {sp} has an empty trace set")
            if not members <= ids:
                raise ModelError(f"standpoint {sp} names unknown traces")

    def node(self, i: int) -> int:
        """Collapse a position onto its lasso node."""
        if i < self.prefix_len:
            return i
        return self.prefix_len + (i - self.prefix_len) % self.period_len

    @property
    def length(self) -> int:
        return self.prefix_len + self.period_len


# ---------------------------------------------------------------------------
# Ground-truth evaluation

def evaluate(model: SLTLModel, trace_id: str, position: int, f: Formula) -> bool:
    """Satisfaction at ``(trace, position)``, clause by clause.

    One loop over the flat program of ``f`` (``program``: its distinct
    subformulas, children first, and each one's child positions) gives
    each subformula one mask over every cell of the model, whose bit
    ``t * L + k`` is its truth at lasso node ``k`` of trace ``t``, the
    traces in the order of ``model.traces``; each trace's ``L`` bits are its
    block.  Boolean connectives are one bit operation, ``X`` moves each bit
    to the node before it within its block (the last node reads the first
    node of the period), ``U`` is the least fixpoint of
    ``u = b | (a & X u)``, and a modality ORs (diamond) or ANDs (box) the
    blocks of its extent's traces and copies the result to every block.
    """
    if trace_id not in model.traces:
        raise ModelError(f"unknown trace id {trace_id!r}")
    if position < 0:
        raise ModelError("positions are natural numbers")
    lam, L, prefix = model.lam, model.length, model.prefix_len
    index = {tid: t for t, tid in enumerate(model.traces)}
    block = (1 << L) - 1  # the cells of trace 0
    repl = ((1 << len(index) * L) - 1) // block  # node 0 of every trace
    full = block * repl
    keep = full ^ repl << (L - 1)  # every cell but the last node of a trace
    rows = [tr.prefix + tr.period for tr in model.traces.values()]

    def extent(sp: Standpoint) -> frozenset[str]:
        try:
            return lam[sp]
        except KeyError:
            raise ModelError(f"standpoint {sp} is not assigned in the model") from None

    def after(m: int) -> int:
        """``X``: bit ``k`` of each block is bit ``succ(k)`` of ``m``'s."""
        return m >> 1 & keep | (m >> prefix & repl) << (L - 1)

    masks: list[int] = []  # by list position
    for g, a, b in zip(*program(f)):
        cls = type(g)
        if cls is And:
            v = masks[a] & masks[b]
        elif cls is Or:
            v = masks[a] | masks[b]
        elif cls is Not:
            v = full ^ masks[a]
        elif cls is Prop:
            name = g.name
            v = sum(1 << t * L + k for t, vals in enumerate(rows) for k, row in enumerate(vals) if name in row)
        elif cls is Next:
            v = after(masks[a])
        elif cls is Until:
            hold, reach = masks[a], masks[b]
            v, step = 0, reach
            while step != v:
                v, step = step, reach | hold & after(step)
        elif cls is DiamondS:
            operand, m = masks[a], 0
            for tid in extent(g.standpoint):
                m |= operand >> index[tid] * L
            v = (m & block) * repl
        elif cls is BoxS:
            operand, m = masks[a], block
            for tid in extent(g.standpoint):
                m &= operand >> index[tid] * L
            v = m * repl
        elif cls is Sharper:
            v = full if extent(g.left) <= extent(g.right) else 0
        elif cls is Top:
            v = full
        elif cls is Bottom:
            v = 0
        else:
            raise TypeError(f"not a formula: {g!r}")
        masks.append(v)
    return bool(masks[-1] >> (index[trace_id] * L + model.node(position)) & 1)


def check_product_formula(f: Formula) -> None:
    """Reject formulas outside the product sublanguage.

    Only the universal modality is allowed and sharpening atoms are not;
    plain modal formulas are represented with the universal standpoint.
    The error names the first offending node in pre-order.
    """

    def first(g: Formula, kids: tuple) -> Formula | None:
        if isinstance(g, Sharper) or isinstance(g, (DiamondS, BoxS)) and not g.standpoint.is_universal:
            return g
        return next((k for k in kids if k is not None), None)

    g = fold(f, first)
    if isinstance(g, Sharper):
        raise ValueError("sharpening atoms are outside the product sublanguage")
    if g is not None:
        raise ValueError(f"modality over {g.standpoint} is outside the product sublanguage")


# ---------------------------------------------------------------------------
# Witness serialization

def model_to_json(model: SLTLModel, designated: str) -> dict:
    """Witness object matching the documented schema.  Standpoints are
    listed by name, so the bytes never depend on how the model was built."""
    traces = {
        tid: [sorted(tr.valuation(k)) for k in range(model.length)]
        for tid, tr in model.traces.items()
    }
    lam = {str(sp): sorted(model.lam[sp]) for sp in sorted(model.lam, key=str)}
    return {
        "prefix_len": model.prefix_len,
        "period_len": model.period_len,
        "traces": traces,
        "lambda": lam,
        "designated": designated,
    }


def model_from_json(data: object) -> tuple[SLTLModel, str]:
    """Parse and validate a witness object; raises WitnessFormatError."""
    if not isinstance(data, dict):
        raise WitnessFormatError("witness must be a JSON object")
    for key in ("prefix_len", "period_len", "traces", "lambda", "designated"):
        if key not in data:
            raise WitnessFormatError(f"witness is missing the {key!r} field")
    prefix_len = data["prefix_len"]
    period_len = data["period_len"]
    for length in (prefix_len, period_len):
        if not isinstance(length, int) or isinstance(length, bool):
            raise WitnessFormatError("prefix_len and period_len must be integers")
    if prefix_len < 0 or period_len < 1:
        raise WitnessFormatError("prefix_len must be at least 0 and period_len at least 1")
    raw_traces = data["traces"]
    if not isinstance(raw_traces, dict) or not raw_traces:
        raise WitnessFormatError("traces must be a non-empty object")
    traces: dict[str, UPTrace] = {}
    for tid, rows in raw_traces.items():
        if not isinstance(rows, list) or len(rows) != prefix_len + period_len:
            raise WitnessFormatError(
                f"trace {tid!r} must list prefix_len + period_len valuations"
            )
        vals = []
        for row in rows:
            if not isinstance(row, list) or not all(isinstance(p, str) for p in row):
                raise WitnessFormatError(f"trace {tid!r} has a malformed valuation")
            vals.append(frozenset(row))
        traces[tid] = UPTrace(tuple(vals[:prefix_len]), tuple(vals[prefix_len:]))
    raw_lam = data["lambda"]
    if not isinstance(raw_lam, dict):
        raise WitnessFormatError("lambda must be an object")
    lam: dict[Standpoint, frozenset[str]] = {}
    for key, members in raw_lam.items():
        if not isinstance(key, str) or not key.startswith("@"):
            raise WitnessFormatError(f"lambda key {key!r} must carry the '@' sigil")
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise WitnessFormatError(f"lambda entry {key!r} must list trace ids")
        try:
            sp = Standpoint(key[1:])
        except ValueError as exc:
            raise WitnessFormatError(f"lambda key {key!r}: {exc}") from exc
        lam[sp] = frozenset(members)
    designated = data["designated"]
    if not isinstance(designated, str) or designated not in traces:
        raise WitnessFormatError(f"designated trace {designated!r} is not in the model")
    try:
        model = SLTLModel(traces, lam, prefix_len, period_len)
    except ModelError as exc:
        raise WitnessFormatError(str(exc)) from exc
    return model, designated
