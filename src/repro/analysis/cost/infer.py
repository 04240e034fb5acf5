"""Symbolic I/O-cost inference over the flow project's call graph.

For each function the inferencer walks the statement tree, charges the
model's primitives (stream iteration and appends, block reads/writes,
``get_many`` waves, amortized structure operations), multiplies through
recognized loop shapes, and inlines callee summaries bottom-up through
the call graph.  The result is an aggregate :class:`Cost` over the
whole input — the quantity the EM201/EM202 certification compares with
the declared bound.

Loop recognition (the heart of the analysis):

* ``for`` over a stream (or a combinator of streams) — trip ``N``
  records plus one ``Scan(N)`` read charge; a reader (``iter(s)``,
  ``s.iter_blocks()``) is charged its ``Scan(N)`` where it is opened,
  however it is consumed;
* ``for`` over ``range(...)`` — trip evaluated symbolically from the
  tracked local environment (``num_blocks`` ~ ``N/B`` etc.);
* ``for`` over an unknown container — trip bounded by ``N`` (a single
  Python loop touches each element once);
* ``while len(x) > 1`` with ``x`` reassigned from a call — a merge
  *pass loop*: trip ``log_{M/B}(N/B)``;
* ``while worklist`` drain loops — a *refinement* loop (re-inserts
  partitions produced by a project callee: trip ``log_{M/B}``) or a
  *record* drain (re-inserts plain records: trip ``N``);
* doubling/halving loops — trip ``log_2 N``;
* anything else carrying I/O — the unknown factor ``K`` (EM203).

Within a loop, *aggregate* costs whose subject is loop-variant (a
callee processing the loop's own partition) obey linearity — the parts
sum to the whole, so they are charged once at full ``N`` instead of
being multiplied by the trip count.  Everything else multiplies.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..rules import MATERIALIZERS
from ..streams import (
    BLOCK_READERS, READER, SORTER, STREAM, STREAMS, builds,
    call_head as _call_head, kind, opens,
)
from .declared import MACHINE, SymEval
from .expr import Cost, Term, mul, normalized
from ..flow.summaries import (
    FunctionInfo, Project, _calls_in, _positional_args, assigned_names,
    expr_key, names_in,
)

#: per-call single-block transfers
_BLOCK_METHODS = {"read_block", "write_block", "append_block", "put",
                  "load", "store"}
#: per-record amortized writes on stream-like receivers
_RECORD_WRITES = {"append", "push", "add", "appendleft"}
#: cooperative read intents — a generator yields them to its driver,
#: which reads the requested blocks as one batch
_READ_INTENTS = {"StreamRead"}
#: distributive (already whole-input) transfers
_BATCHED_METHODS = {"get_many", "read_many", "read_block_range",
                    "write_block_range", "extend", "append_blocks",
                    "put_batch", "append_payload"}
#: free bookkeeping on model objects
_FREE_METHODS = {"finalize", "delete", "close", "sync", "flush",
                 "flush_all", "drop_all", "clear", "reset_stats",
                 "reserve", "acquire", "release", "trace", "measure",
                 "stats", "block_id", "is_finalized", "sort", "pop",
                 "popleft", "remove", "keys", "values", "get",
                 "setdefault", "reader", "block_ids", "tick",
                 "register", "unregister", "checkpoint"}

#: data structures charged by their certified amortized contract
#: instead of descending into their method bodies
_STRUCTURE_COSTS: Dict[str, Dict[str, Cost]] = {
    "BPlusTree": {
        "get": [Term(1, {"logB": 1})],
        "insert": [Term(1, {"logB": 1})],
        "delete": [Term(1, {"logB": 1})],
        "range_query": [Term(1, {"logB": 1}), Term(1, {"Z": 1, "B": -1})],
    },
    "ExtendibleHashTable": {
        "get": [Term(2.0)],
        "insert": [Term(2.0)],
        "delete": [Term(2.0)],
    },
    "ExternalPriorityQueue": {
        "insert": [Term(1, {"B": -1, "logm": 1})],
        "delete_min": [Term(1, {"B": -1, "logm": 1})],
        "push": [Term(1, {"B": -1, "logm": 1})],
        "pop": [Term(1, {"B": -1, "logm": 1})],
    },
    "BTreePriorityQueue": {
        "insert": [Term(1, {"logB": 1})],
        "delete_min": [Term(1, {"logB": 1})],
    },
    "BufferTree": {
        "insert": [Term(1, {"B": -1, "logm": 1})],
        "delete": [Term(1, {"B": -1, "logm": 1})],
        "flush": [Term(1, {"N": 1, "B": -1, "logm": 1})],
    },
    "Sorter": {
        # pipelined sort: push amortizes the run write plus this
        # record's share of the intermediate merge passes (push_block,
        # consume: their payload's share, see _AGGREGATE_CONTRACTS);
        # finish reads the final merge back through the pull iterator.
        "push": [Term(1, {"B": -1, "logm": 1})],
        "push_block": [Term(1, {"N": 1, "B": -1, "logm": 1})],
        "consume": [Term(1, {"N": 1, "B": -1, "logm": 1})],
        "finish": [Term(1, {"N": 1, "B": -1})],
        "finish_segments": [Term(1, {"N": 1, "B": -1})],
    },
    "BlockBuilder": {
        # re-blocking plumbing, not a device: the blocks it emits are
        # charged at its sink's append_block (or by the enclosing
        # block-loop's trip count), so push/flush themselves are free.
        "push": [],
        "flush": [],
    },
    "ExternalStack": {
        "push": [Term(1, {"B": -1})],
        "pop": [Term(1, {"B": -1})],
    },
    "ExternalQueue": {
        "push": [Term(1, {"B": -1})],
        "pop": [Term(1, {"B": -1})],
        "append": [Term(1, {"B": -1})],
        "popleft": [Term(1, {"B": -1})],
    },
}

#: contract methods charged as an aggregate over their payload
#: argument: loop iterations that pass disjoint pieces of the data sum
#: to one whole-input charge (linearity), as a stream's ``extend`` does
_AGGREGATE_CONTRACTS = {"push_block", "consume", "finish", "finish_segments"}

_COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp,
                   ast.DictComp)

_SCAN = Term(1, {"N": 1, "B": -1})
_N = Term(1, {"N": 1})
_PER_RECORD_WRITE = Term(1, {"B": -1})


class Item:
    """One charged monomial in flight through the loop-nest walk."""

    __slots__ = ("term", "aggregate", "subjects", "origin", "batch",
                 "once")

    def __init__(self, term: Term, aggregate: bool,
                 subjects: FrozenSet[str], origin: str,
                 batch: bool = False, once: bool = False) -> None:
        self.term = term
        self.aggregate = aggregate
        self.subjects = subjects
        self.origin = origin
        self.batch = batch      # EM204 candidate: unbatched block read
        self.once = once        # whole-run total: never loop-multiplied


class Summary:
    """Aggregate cost of one function plus the loop sites that fed it."""

    __slots__ = ("cost", "ksites", "bsites", "origins")

    def __init__(self, cost: Cost,
                 ksites: FrozenSet[Tuple[str, int, str]],
                 bsites: FrozenSet[Tuple[str, int, str]],
                 origins: Tuple[str, ...] = ()) -> None:
        self.cost = cost
        self.ksites = ksites
        self.bsites = bsites
        self.origins = origins


class _Ctx:
    __slots__ = ("func", "env", "callsites", "ksites", "bsites")

    def __init__(self, func: FunctionInfo) -> None:
        self.func = func
        self.env: Dict[str, object] = {}
        self.callsites = func.site_of
        self.ksites: Set[Tuple[str, int, str]] = set()
        self.bsites: Set[Tuple[str, int, str]] = set()

    def kind(self, node: ast.AST) -> Optional[str]:
        return kind(node, self.func.streams, self.func.returns)

    def opened(self, call: ast.AST) -> Optional[ast.AST]:
        return opens(call, self.func.streams, self.func.returns)


class _AlgoEval(SymEval):
    """Expression evaluator bound to a function's tracked locals."""

    def __init__(self, ctx: _Ctx) -> None:
        super().__init__(module=None)
        self.ctx = ctx

    def resolve_name(self, name: str) -> object:
        if name == "machine":
            return MACHINE
        value = self.ctx.env.get(name)
        if value is not None:
            return value
        if self.ctx.func.streams.get(name) in (STREAM, READER, SORTER):
            return [Term(1, {"N": 1})]
        return None

    def resolve_attribute(self, node: ast.Attribute) -> object:
        if node.attr == "num_blocks":
            inner = self.eval(node.value)
            if isinstance(inner, list) and any(
                    "N" in t.powers for t in inner):
                return mul(inner, [Term(1, {"B": -1})])
        return super().resolve_attribute(node)


class Inferencer:
    """Bottom-up symbolic cost summaries over a flow :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._cache: Dict[int, Summary] = {}
        self._stack: Set[int] = set()

    # -- public --------------------------------------------------------

    def summary(self, func: FunctionInfo) -> Summary:
        key = id(func)
        if key in self._cache:
            return self._cache[key]
        if key in self._stack:
            # recursion: the loop structure at the outermost call is
            # what carries the trip count; the back edge adds nothing
            return Summary([], frozenset(), frozenset())
        self._stack.add(key)
        try:
            summary = self._infer(func)
        finally:
            self._stack.discard(key)
        self._cache[key] = summary
        return summary

    # -- function body -------------------------------------------------

    def _infer(self, func: FunctionInfo) -> Summary:
        ctx = _Ctx(func)
        items = self._block(func.node.body, ctx, frozenset())
        cost = normalized([it.term for it in items])
        origins = tuple(dict.fromkeys(
            it.origin for it in items if it.origin))[:6]
        return Summary(cost, frozenset(ctx.ksites),
                       frozenset(ctx.bsites), origins)

    def _block(self, stmts: Iterable[ast.stmt], ctx: _Ctx,
               variant: FrozenSet[str]) -> List[Item]:
        items: List[Item] = []
        for stmt in stmts:
            items.extend(self._stmt(stmt, ctx, variant))
        return items

    def _stmt(self, stmt: ast.stmt, ctx: _Ctx,
              variant: FrozenSet[str]) -> List[Item]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return []
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, ctx, variant)
        if isinstance(stmt, ast.While):
            return self._while(stmt, ctx, variant)
        if isinstance(stmt, ast.If):
            header = self._charge_calls(stmt, ctx, variant)
            body = self._block(stmt.body, ctx, variant)
            if self._is_flush_guard(stmt.test, ctx):
                # ``if len(buffer) == B: write_block(...)`` — the body
                # runs once every B loop iterations, not every one.
                inv_b = Term(1, {"B": -1})
                body = [Item(it.term.times(inv_b), it.aggregate,
                             it.subjects, it.origin, it.batch)
                        for it in body]
            return header + _join_branches([
                body,
                self._block(stmt.orelse, ctx, variant),
            ])
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            header = self._charge_calls(stmt, ctx, variant)
            return header + self._block(stmt.body, ctx, variant)
        if isinstance(stmt, ast.Try):
            items = self._block(stmt.body, ctx, variant)
            for handler in stmt.handlers:
                items.extend(self._block(handler.body, ctx, variant))
            items.extend(self._block(stmt.orelse, ctx, variant))
            items.extend(self._block(stmt.finalbody, ctx, variant))
            return items
        # simple statement: track locals, then charge its calls
        self._track_assign(stmt, ctx)
        return self._charge_calls(stmt, ctx, variant)

    # -- local environment --------------------------------------------

    def _track_assign(self, stmt: ast.stmt, ctx: _Ctx) -> None:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        value = stmt.value
        if isinstance(target, ast.Tuple):
            for sub in target.elts:
                if isinstance(sub, ast.Name):
                    ctx.env.pop(sub.id, None)
            return
        if not isinstance(target, ast.Name):
            return
        ctx.env[target.id] = _AlgoEval(ctx).eval(value)

    # -- charging calls ------------------------------------------------

    def _charge_calls(self, stmt: ast.stmt, ctx: _Ctx,
                      variant: FrozenSet[str]) -> List[Item]:
        items: List[Item] = []
        for call in _calls_in(stmt):
            items.extend(self._pulled_args(call, ctx))
            items.extend(self._charge_call(call, ctx, variant))
        return items

    def _pulled_args(self, call: ast.Call, ctx: _Ctx) -> List[Item]:
        """Sorters a call's arguments pull: a comprehension over one,
        and one handed to a consumer function — not to a method, which
        stores it (``opened.append(sorter)``), nor to a callee that
        takes the parameter as a Sorter and charges its own pulls."""
        site = ctx.callsites.get(id(call))
        callee = site.callee if site is not None else None
        if callee is None:
            args = call.args + [kw.value for kw in call.keywords]
        else:
            args = [arg for param, arg in zip(callee.params,
                                              _positional_args(site))
                    if param != "self"
                    and callee.local_types.get(param) != "Sorter"]
        if not (isinstance(call.func, ast.Name) or builds(call)):
            args = [arg for arg in args if isinstance(arg, _COMPREHENSIONS)]
        return [item for arg in args if arg is not None
                for item in self._sorter_pull(arg, ctx)]

    def _sorter_pull(self, node: ast.AST, ctx: _Ctx) -> List[Item]:
        """A Sorter iterated — ``for r in sorter``, handed to a
        consumer (or its uncalled ``finish``), or the source of a
        comprehension — is a pull, charged as its ``finish``
        contract."""
        if isinstance(node, _COMPREHENSIONS):
            node = node.generators[0].iter
        elif isinstance(node, ast.Attribute) \
                and node.attr in ("finish", "finish_segments"):
            node = node.value
        if not (isinstance(node, ast.Name)
                and ctx.func.local_types.get(node.id) == "Sorter"):
            return []
        origin = f"Sorter pull at {ctx.func.path}:{node.lineno}"
        return [Item(t, "finish" in _AGGREGATE_CONTRACTS,
                     frozenset({node.id}), origin)
                for t in _STRUCTURE_COSTS["Sorter"]["finish"]]

    def _charge_call(self, call: ast.Call, ctx: _Ctx,
                     variant: FrozenSet[str]) -> List[Item]:
        fn = call.func
        origin = f"{ctx.func.path}:{call.lineno}"
        subjects = names_in(call)
        source = ctx.opened(call)
        if source is not None:
            # a reader on a stream reads it once, wherever it is opened
            return [Item(_SCAN, True, names_in(source),
                         f"reader at {origin}")]

        if isinstance(fn, ast.Name):
            if fn.id in MATERIALIZERS and call.args:
                arg = call.args[0]
                if ctx.kind(arg) == STREAM:
                    return [Item(_SCAN, True, names_in(arg),
                                 f"{fn.id}() scan at {origin}")]
            if fn.id in _READ_INTENTS and call.args:
                # ``yield StreamRead(ids)``: the driver reads ``ids`` as
                # one wave — a batch over the data like ``get_many``.
                return [Item(_SCAN, True, subjects,
                             f"{fn.id}() wave at {origin}")]
            site = ctx.callsites.get(id(call))
            callee = site.callee if site is not None else None
            return self._charge_callee(callee, subjects, origin, ctx)

        if isinstance(fn, ast.Attribute):
            attr = fn.attr
            recv = fn.value
            recv_key = expr_key(recv)
            data = builds(call) and (call.args[1:2] or [
                kw.value for kw in call.keywords
                if kw.arg in ("records", "payload")])
            if data:
                # ``FileStream.from_records(machine, records)``: one
                # write pass over the records it is given
                return [Item(_SCAN, True, names_in(data[0]),
                             f"{recv_key}.{attr}() write at {origin}")]
            # structure contracts first (BPlusTree.get, pq.insert, ...)
            cls = self.project._receiver_class(ctx.func, recv)
            if cls is not None and cls.name in _STRUCTURE_COSTS:
                contract = _STRUCTURE_COSTS[cls.name].get(attr)
                if contract is not None:
                    return [Item(t, attr in _AGGREGATE_CONTRACTS,
                                 subjects,
                                 f"{cls.name}.{attr}() at {origin}")
                            for t in contract]
            pool_like = recv_key.endswith("pool") or (
                cls is not None and cls.name == "BufferPool")
            if attr in _BLOCK_METHODS or (attr == "get" and pool_like):
                return [Item(Term(1.0), False, subjects,
                             f"{attr}() at {origin}",
                             batch=pool_like)]
            if attr in _BATCHED_METHODS:
                if _is_charged_receiver(recv, ctx) or pool_like \
                        or attr in ("get_many", "read_many",
                                    "read_block_range",
                                    "write_block_range"):
                    return [Item(_SCAN, True, subjects,
                                 f"{attr}() wave at {origin}")]
                return []
            if attr in _RECORD_WRITES and _is_charged_receiver(recv, ctx):
                return [Item(_PER_RECORD_WRITE, False, subjects,
                             f"{attr}() at {origin}")]
            if attr in _FREE_METHODS:
                return []
            site = ctx.callsites.get(id(call))
            callee = site.callee if site is not None else None
            return self._charge_callee(callee, subjects, origin, ctx)
        return []

    def _charge_callee(self, callee: Optional[FunctionInfo],
                       subjects: FrozenSet[str], origin: str,
                       ctx: _Ctx) -> List[Item]:
        if callee is None or callee.module.kind != "algorithm":
            return []
        summary = self.summary(callee)
        ctx.ksites |= summary.ksites
        ctx.bsites |= summary.bsites
        return [Item(t, True, subjects,
                     f"{callee.display()}() at {origin}")
                for t in summary.cost]

    # -- loops ---------------------------------------------------------

    def _for(self, stmt: ast.For, ctx: _Ctx,
             variant: FrozenSet[str]) -> List[Item]:
        kind, trip, iter_subjects, charge_scan = \
            self._classify_iter(stmt.iter, ctx)
        local = frozenset(_assigned(stmt.body) | names_in(stmt.target))
        header = self._charge_calls(stmt, ctx, variant | local)
        body = self._block(list(stmt.body) + list(stmt.orelse),
                           ctx, variant | local)
        out: List[Item] = header + self._sorter_pull(stmt.iter, ctx)
        if charge_scan:
            out.append(Item(_SCAN, True, iter_subjects,
                            f"stream loop at {ctx.func.path}:"
                            f"{stmt.lineno}"))
        for it in body:
            if it.once:
                out.append(it)
                continue
            if it.aggregate and (it.subjects & local):
                # linearity: the iterations partition the data
                out.append(_remap(it, local, iter_subjects))
                continue
            if it.batch and (it.subjects & local):
                ctx.bsites.add((
                    ctx.func.path, stmt.lineno,
                    "per-block read issued one-at-a-time in a loop "
                    "over precomputed indices; a get_many() wave "
                    "batch is available "
                    f"(read at {it.origin})"))
            out.extend(_multiply(it, trip, local, iter_subjects))
        return out

    def _while(self, stmt: ast.While, ctx: _Ctx,
               variant: FrozenSet[str]) -> List[Item]:
        local = frozenset(_assigned(stmt.body))
        header = self._charge_calls(stmt, ctx, variant | local)
        body = self._block(list(stmt.body) + list(stmt.orelse),
                           ctx, variant | local)
        if not body:
            return header
        kind, payload = self._classify_while(stmt, ctx)
        test_subjects = names_in(stmt.test)
        out: List[Item] = list(header)
        if kind == "cursor":
            # a merge-join cursor: ``entry = next(it, None)`` advances a
            # monotone iterator, so across the whole run the body
            # executes once per record of the underlying stream — an
            # amortized total, immune to the enclosing loop's trip.
            # Totals pass through: a nested cursor's, and an aggregate
            # over the cursor's source or this round's records.
            for it in body:
                if it.once or (it.aggregate
                               and it.subjects & (local | payload)):
                    out.append(Item(it.term, True, it.subjects, it.origin,
                                    once=True))
                    continue
                out.append(Item(
                    it.term.times(Term(1, {"N": 1})), True,
                    (it.subjects - local) | payload, it.origin,
                    once=True))
        elif kind in ("pass_logm", "refine"):
            factor: Cost = [Term(1, {"logm": 1})]
            for it in body:
                if it.once:
                    out.append(it)
                    continue
                out.extend(_multiply(it, factor, local, test_subjects,
                                     force=True))
        elif kind == "pass_logN":
            factor = [Term(1, {"logN": 1})]
            for it in body:
                if it.once:
                    out.append(it)
                    continue
                out.extend(_multiply(it, factor, local, test_subjects,
                                     force=True))
        elif kind in ("drain", "worklist"):
            # linearity: per-round aggregates over a round-local stream
            # partition the data, so their whole-run total is one pass
            for it in body:
                if it.once:
                    out.append(it)
                elif it.aggregate and (it.subjects & local):
                    out.append(_remap(it, local, test_subjects))
                else:
                    out.extend(_multiply(it, [_N], local, test_subjects))
        elif kind == "chunked":
            # a reader consumed one memoryload per round: N/M rounds.
            # A one-shot iterator's scan is spread across the rounds
            # (each round reads fresh records), so it is charged once.
            readers = {name for name, found in ctx.func.streams.items()
                       if found == READER} - local
            for it in body:
                if it.once or (it.aggregate and it.subjects & readers):
                    out.append(it)
                else:
                    out.extend(_multiply(it, payload, local,
                                         test_subjects, force=True))
        else:
            ctx.ksites.add((
                ctx.func.path, stmt.lineno,
                "loop-carried I/O with a data-dependent trip count "
                "and no recognizable clamp to N/B or M/B"))
            factor = [Term(1, {"K": 1})]
            for it in body:
                if it.once:
                    out.append(it)
                    continue
                out.extend(_multiply(it, factor, local, test_subjects,
                                     force=True))
        return out

    # -- classification ------------------------------------------------

    def _classify_iter(
            self, node: ast.AST, ctx: _Ctx,
    ) -> Tuple[str, Cost, FrozenSet[str], bool]:
        """-> (kind, trip cost, subjects, charge a Scan read?)"""
        subjects = names_in(node)
        found = ctx.kind(node)
        if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)):
            if found in (STREAM, READER):
                # a reader was charged where it was opened
                return "stream", [_N], subjects, found == STREAM
            value = _AlgoEval(ctx).eval(node)
            if isinstance(value, list) and value \
                    and all(isinstance(t, Term) for t in value):
                return "count", value, subjects, False
            return "container", [_N], subjects, False
        if isinstance(node, ast.Call):
            head = _call_head(node)
            if head == "range":
                trip = self._range_trip(node, ctx)
                return "count", trip, subjects, False
            if isinstance(node.func, ast.Attribute) \
                    and head in BLOCK_READERS:
                # a reader opened here is charged as a call of the
                # header; a block reader trips once per block
                return ("count", [Term(1, {"N": 1, "B": -1})], subjects,
                        False)
            if head in ("enumerate", "reversed", "sorted", "zip"):
                for arg in node.args:
                    kind, trip, inner, scan_it = \
                        self._classify_iter(arg, ctx)
                    if kind == "stream":
                        return kind, trip, subjects, scan_it
                return "container", [_N], subjects, False
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _BLOCK_METHODS:
                # one block's payload: B records (the read itself is
                # charged at the call site, not here)
                return "count", [Term(1, {"B": 1})], subjects, False
            # stream combinators (a merge over run readers etc.): a
            # stream argument makes this a merged record loop, which
            # reads the streams unless their readers were opened here
            if found is not None or self._streams_in(node, ctx):
                return ("stream", [_N], subjects,
                        self._streams_in(node, ctx))
            return "container", [_N], subjects, False
        if isinstance(node, (ast.Tuple, ast.List)):
            return "count", [Term(float(len(node.elts)))], subjects, \
                False
        return "container", [_N], subjects, False

    def _streams_in(self, node: ast.AST, ctx: _Ctx) -> bool:
        """Does a stream, or a list of them, occur in ``node`` outside
        the readers it opens?"""
        if isinstance(node, ast.Name):
            return ctx.kind(node) in (STREAM, STREAMS)
        return ctx.opened(node) is None and any(
            self._streams_in(child, ctx)
            for child in ast.iter_child_nodes(node))

    def _is_flush_guard(self, test: ast.expr, ctx: _Ctx) -> bool:
        """``len(buffer) == B`` (or ``>= B``) — a block-flush guard."""
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], (ast.Eq, ast.GtE))):
            return False
        left, right = test.left, test.comparators[0]
        if not (isinstance(left, ast.Call)
                and _call_head(left) == "len"):
            left, right = right, left
        if not (isinstance(left, ast.Call)
                and _call_head(left) == "len"):
            return False
        cost = _AlgoEval(ctx).eval(right)
        return (isinstance(cost, list) and len(cost) == 1
                and cost[0].coeff >= 1
                and cost[0].powers == {"B": 1})

    def _range_trip(self, node: ast.Call, ctx: _Ctx) -> Cost:
        evaluator = _AlgoEval(ctx)
        args = node.args
        if len(args) == 1:
            start, stop, step = None, args[0], None
        elif len(args) >= 2:
            start, stop = args[0], args[1]
            step = args[2] if len(args) > 2 else None
        else:
            return [_N]
        stop_cost = evaluator.eval(stop)
        # An unevaluable stop is still at most N records; a symbolic
        # step (e.g. ``range(0, len(chunk), B)``) divides the trip.
        span = stop_cost if isinstance(stop_cost, list) else [_N]
        step_cost = evaluator.eval(step) if step is not None else None
        if isinstance(step_cost, list) and len(step_cost) == 1 \
                and not step_cost[0].is_constant:
            span = normalized([t.over(step_cost[0]) for t in span])
        elif isinstance(step_cost, list) and len(step_cost) == 1 \
                and step_cost[0].coeff > 1:
            span = normalized([t.over(step_cost[0]) for t in span])
        return span

    def _classify_while(self, stmt: ast.While,
                        ctx: _Ctx) -> Tuple[str, object]:
        test_names = names_in(stmt.test)
        # merge-join cursor: the body (no nested loops) advances a test
        # variable with ``entry = next(it, default)`` — amortized over
        # the iterator's stream
        cursor = self._cursor_subjects(stmt)
        if cursor is not None:
            return "cursor", cursor
        # ``while len(x) > limit`` + x reassigned in the body: limit >= 1
        # is a reduction pass loop (merge until one run remains); limit 0
        # is a frontier/worklist loop (run until empty), whose per-round
        # streams partition the data (linearity)
        if isinstance(stmt.test, ast.Compare):
            for node in ast.walk(stmt.test):
                if isinstance(node, ast.Call) \
                        and _call_head(node) == "len" and node.args \
                        and isinstance(node.args[0], ast.Name):
                    shrunk = node.args[0].id
                    reassigned = any(
                        isinstance(sub, ast.Assign)
                        and len(sub.targets) == 1
                        and shrunk in names_in(sub.targets[0])
                        for sub in ast.walk(stmt))
                    limit = None
                    for comp in ast.walk(stmt.test):
                        if isinstance(comp, ast.Constant) \
                                and isinstance(comp.value, (int, float)):
                            limit = comp.value
                    if reassigned and limit is not None:
                        if limit >= 1:
                            return "pass_logm", None
                        return "worklist", None
        # geometric doubling/halving of a counter
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.Mult, ast.FloorDiv, ast.RShift,
                              ast.LShift)):
                value = node.value
                shift = isinstance(node.op, (ast.RShift, ast.LShift))
                if isinstance(value, ast.Constant) and (
                        value.value in (2, 4)
                        or (shift and value.value in (1, 2))):
                    return "pass_logN", None
        # flag-terminated chunk loop over a reader: N/M rounds
        rounds = self._chunk_rounds(stmt, ctx)
        if rounds is not None:
            return "chunked", rounds
        # ``while True`` with an exit and a reassigned stream: treated
        # as a worklist round loop (per-round totals, linearity)
        if isinstance(stmt.test, ast.Constant) \
                and stmt.test.value is True:
            has_exit = any(isinstance(n, (ast.Break, ast.Return))
                           for n in ast.walk(stmt))
            reassigns_call = any(
                isinstance(sub, ast.Assign) and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, (ast.Call, ast.Name))
                for sub in ast.walk(stmt))
            if has_exit and reassigns_call:
                return "worklist", None
        # pointer chase: the test variable is reassigned from a
        # subscript each round (linked-list walk) — at most N hops
        if isinstance(stmt.test, ast.Compare):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) \
                        and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name) \
                        and node.targets[0].id in test_names \
                        and isinstance(node.value, ast.Subscript):
                    return "drain", None
        # drain loops: the tested container is popped in the body
        popped = False
        refill_exprs: List[ast.AST] = []
        project_call_names: Set[str] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign) \
                    and len(node.targets) == 1 \
                    and isinstance(node.value, ast.Call):
                site = ctx.callsites.get(id(node.value))
                if site is not None and site.callee is not None \
                        and site.callee.module.kind == "algorithm":
                    for name in names_in(node.targets[0]):
                        project_call_names.add(name)
            if isinstance(node, ast.Call):
                fn = node.func
                if isinstance(fn, ast.Attribute) \
                        and fn.attr in ("pop", "popleft", "delete_min") \
                        and isinstance(fn.value, ast.Name) \
                        and fn.value.id in test_names:
                    popped = True
                if _call_head(node) == "heappop" and node.args \
                        and isinstance(node.args[0], ast.Name) \
                        and node.args[0].id in test_names:
                    popped = True
                if isinstance(fn, ast.Attribute) \
                        and fn.attr in ("append", "extend", "insert") \
                        and isinstance(fn.value, ast.Name) \
                        and fn.value.id in test_names:
                    refill_exprs.extend(node.args)
                if _call_head(node) == "heappush" and node.args \
                        and isinstance(node.args[0], ast.Name) \
                        and node.args[0].id in test_names:
                    refill_exprs.extend(node.args[1:])
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id in test_names:
                        refill_exprs.append(node.value)
        if popped:
            for expr in refill_exprs:
                names = names_in(expr)
                if names & project_call_names:
                    return "refine", None
                for sub in ast.walk(expr):
                    if isinstance(sub, ast.Call):
                        site = ctx.callsites.get(id(sub))
                        if site is not None and site.callee is not None \
                                and site.callee.module.kind \
                                == "algorithm":
                            return "refine", None
            return "drain", None
        return "unknown", None

    def _cursor_subjects(
            self, stmt: ast.While) -> Optional[FrozenSet[str]]:
        """The sources a merge-join cursor loop advances over, or
        ``None`` when ``stmt`` is not one.  The loop assigns a test
        variable from ``next(source, ...)`` or, in a cooperative
        generator, ``x = yield from step(source)`` with an ``x is not
        None`` test; it may hold nested cursor loops (a join's
        key-group scans) but no other loop."""
        test_names = names_in(stmt.test)
        sentinels = {node.left.id for node in ast.walk(stmt.test)
                     if isinstance(node, ast.Compare)
                     and isinstance(node.left, ast.Name)
                     and isinstance(node.ops[0], ast.IsNot)
                     and isinstance(node.comparators[0], ast.Constant)
                     and node.comparators[0].value is None}
        for sub in stmt.body:
            for node in ast.walk(sub):
                if isinstance(node, (ast.For, ast.AsyncFor)) or (
                        isinstance(node, ast.While)
                        and self._cursor_subjects(node) is None):
                    return None
        subjects: Set[str] = set()
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id in test_names):
                continue
            value = node.value
            if isinstance(value, ast.Call) and _call_head(value) == "next" \
                    and value.args:
                subjects |= names_in(value.args[0])
            elif isinstance(value, ast.YieldFrom) \
                    and isinstance(value.value, ast.Call) \
                    and node.targets[0].id in sentinels:
                for arg in value.value.args:
                    subjects |= names_in(arg)
        return frozenset(subjects) if subjects else None

    def _chunk_rounds(self, stmt: ast.While,
                      ctx: _Ctx) -> Optional[Cost]:
        """``while not exhausted:`` filling a memoryload-sized chunk per
        round (``if len(chunk) == cap: break`` with an M-class cap):
        the round count is N/cap."""
        if not (isinstance(stmt.test, ast.UnaryOp)
                and isinstance(stmt.test.op, ast.Not)):
            return None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Compare) and len(node.ops) == 1 \
                    and isinstance(node.ops[0], ast.Eq):
                cap = _AlgoEval(ctx).eval(node.comparators[0])
                if isinstance(cap, list) and len(cap) == 1 \
                        and cap[0].powers.get("M", 0) > 0:
                    return normalized([_N.over(cap[0])])
        return None


# ---------------------------------------------------------------------
# item plumbing
# ---------------------------------------------------------------------

def _assigned(stmts: Iterable[ast.stmt]) -> Set[str]:
    return assigned_names(node for stmt in stmts for node in ast.walk(stmt))


def _remap(it: Item, local: FrozenSet[str],
           outer_subjects: FrozenSet[str]) -> Item:
    return Item(it.term, True,
                (it.subjects - local) | outer_subjects, it.origin)


def _multiply(it: Item, trip: Cost, local: FrozenSet[str],
              outer_subjects: FrozenSet[str],
              force: bool = False) -> List[Item]:
    if it.once:
        return [it]
    subjects = (it.subjects - local) | outer_subjects
    return [Item(t, True, subjects, it.origin)
            for t in mul([it.term], trip)]


def _join_branches(branches: List[List[Item]]) -> List[Item]:
    """Exclusive branches: groupwise coefficient max, not sum — a
    record flows through one branch, so same-shaped charges across
    branches must not double-count."""
    joined: Dict[Tuple, Item] = {}
    for items in branches:
        acc: Dict[Tuple, Item] = {}
        for it in items:
            key = (it.term.key(), it.aggregate)
            if key in acc:
                prev = acc[key]
                acc[key] = Item(
                    Term(prev.term.coeff + it.term.coeff,
                         dict(it.term.powers)),
                    it.aggregate, prev.subjects | it.subjects,
                    prev.origin, prev.batch or it.batch)
            else:
                acc[key] = it
        for key, it in acc.items():
            if key in joined:
                prev = joined[key]
                coeff = max(prev.term.coeff, it.term.coeff)
                joined[key] = Item(
                    Term(coeff, dict(it.term.powers)), it.aggregate,
                    prev.subjects | it.subjects, prev.origin,
                    prev.batch or it.batch)
            else:
                joined[key] = it
    return list(joined.values())


def _is_charged_receiver(node: ast.AST, ctx: _Ctx) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ctx.func.streams \
            or node.id in ctx.func.local_types
    if isinstance(node, ast.Subscript):
        return _is_charged_receiver(node.value, ctx)
    if isinstance(node, ast.Attribute):
        # self.runs / machine-owned containers: charged
        return True
    return False
