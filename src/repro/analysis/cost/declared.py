"""Extract the *declared* I/O bound of an ``@io_bound`` function.

Two declaration channels are read:

* the **theory callable** — the decorator's first argument, a lambda or
  a module-level ``_xxx_theory`` helper.  A tiny abstract interpreter
  evaluates its body symbolically: ``scan_io``/``sort_io``/... map to
  their closed forms, ``machine.M``/``machine.m``/``machine.B`` to
  atoms, ``n.bit_length()`` to a ``log2 N`` round count, geometric
  shrink loops to pass counts, and ``min(...)`` to alternative arms;
* the **docstring** — classified into a coarse bound *class* (sort /
  scan / linear / search / quadratic) from the survey notation the
  EM003 rule already requires, for the EM205 cross-check.

The result is a :class:`DeclaredBound`: a list of arms (one for plain
bounds, several for ``min(...)`` dispatcher bounds), each a sum of
:class:`~repro.analysis.cost.expr.Term`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from ..flow.summaries import FunctionInfo, ModuleInfo, Project
from .expr import Cost, Term, add, mul, normalized

#: sentinel abstract values
MACHINE = object()    # the machine parameter
RESULT = object()     # the sanitizer's ``result`` parameter (Z records)
CALLDATA = object()   # the sanitizer's ``call`` dict (input-sized data)
INFINITY = object()   # float("inf") guard returns


class MinBound:
    """``min(arm, arm, ...)`` — alternatives, not a sum."""

    def __init__(self, arms: List[Cost]) -> None:
        self.arms = arms


class DeclaredBound:
    def __init__(self, arms: List[Cost]) -> None:
        self.arms = [normalized(arm) for arm in arms]

    @property
    def is_min(self) -> bool:
        return len(self.arms) > 1

    def flat(self) -> Cost:
        """All arms' terms together (the *loosest* reading; used only
        for rendering and class extraction)."""
        return add(*self.arms)


def _as_cost(value: object) -> Optional[Cost]:
    if isinstance(value, list):
        return value
    return None


class SymEval:
    """Symbolic evaluator for bound-flavoured arithmetic expressions.

    Subclasses override :meth:`resolve_name` / :meth:`resolve_attribute`
    to bind free names; unknown subexpressions evaluate to ``None`` and
    poison only the term they appear in, not the whole bound.
    """

    def __init__(self, module: Optional[ModuleInfo] = None,
                 depth: int = 0) -> None:
        self.module = module
        self.env: Dict[str, object] = {}
        self.depth = depth

    # -- name binding --------------------------------------------------

    def resolve_name(self, name: str) -> object:
        return self.env.get(name)

    def resolve_attribute(self, node: ast.Attribute) -> object:
        value = self.eval(node.value)
        if value is MACHINE:
            if node.attr in ("M", "memory"):
                return [Term(1, {"M": 1})]
            if node.attr in ("B", "block_size"):
                return [Term(1, {"B": 1})]
            if node.attr in ("m", "memory_blocks"):
                return [Term(1, {"M": 1, "B": -1})]
            if node.attr in ("D", "num_disks"):
                # transfers, not parallel steps: D contributes no term
                return [Term(1.0)]
            return None
        if value is RESULT or value is CALLDATA:
            # attribute hops (``call["left"].stream``) keep the token
            return value
        return None

    # -- the evaluator -------------------------------------------------

    def eval(self, node: ast.AST) -> object:
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            return None
        return method(node)

    def _eval_Constant(self, node: ast.Constant) -> object:
        if isinstance(node.value, bool):
            return None
        if isinstance(node.value, (int, float)):
            if node.value == float("inf"):
                return INFINITY
            return [Term(float(node.value))]
        return None

    def _eval_Name(self, node: ast.Name) -> object:
        return self.resolve_name(node.id)

    def _eval_Attribute(self, node: ast.Attribute) -> object:
        return self.resolve_attribute(node)

    def _eval_Subscript(self, node: ast.Subscript) -> object:
        value = self.eval(node.value)
        if value in (RESULT, CALLDATA):
            return value
        if isinstance(node.slice, ast.Slice):
            # a slice keeps the container's count class (upper bound)
            return _as_cost(value)
        return None

    def _eval_UnaryOp(self, node: ast.UnaryOp) -> object:
        # ``-(-a // b)`` ceiling division: evaluate the magnitude
        return self.eval(node.operand)

    def _eval_BinOp(self, node: ast.BinOp) -> object:
        left = self.eval(node.left)
        right = self.eval(node.right)
        if left is INFINITY or right is INFINITY:
            return INFINITY
        lc, rc = _as_cost(left), _as_cost(right)
        if isinstance(node.op, ast.Add):
            if lc is None or rc is None:
                return lc if rc is None else rc
            return add(lc, rc)
        if isinstance(node.op, ast.Sub):
            # upper bound: ``m - spare`` ~ m, ``n - 1`` ~ n
            return lc
        if isinstance(node.op, (ast.Mult,)):
            if isinstance(left, MinBound) and rc is not None:
                return MinBound([mul(arm, rc) for arm in left.arms])
            if isinstance(right, MinBound) and lc is not None:
                return MinBound([mul(lc, arm) for arm in right.arms])
            if lc is None or rc is None:
                return None
            return mul(lc, rc)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            if lc is None or rc is None or len(rc) != 1:
                return None
            return normalized([t.over(rc[0]) for t in lc])
        if isinstance(node.op, ast.Pow):
            if lc is None or rc is None or len(rc) != 1 \
                    or not rc[0].is_constant:
                return None
            exp = int(rc[0].coeff)
            if not 0 <= exp <= 4:
                return None
            out: Cost = [Term(1.0)]
            for _ in range(exp):
                out = mul(out, lc)
            return out
        return None

    def _eval_BoolOp(self, node: ast.BoolOp) -> object:
        # ``call.get("fan_in") or machine.m - 1``: the last arm is the
        # default; prefer the last evaluable arm
        for value in reversed([self.eval(v) for v in node.values]):
            if value is not None:
                return value
        return None

    def _eval_IfExp(self, node: ast.IfExp) -> object:
        body = self.eval(node.body)
        orelse = self.eval(node.orelse)
        bc, oc = _as_cost(body), _as_cost(orelse)
        if bc is not None and oc is not None:
            return add(bc, oc)  # upper bound over both branches
        return bc if bc is not None else oc

    def _eval_Call(self, node: ast.Call) -> object:
        fn = node.func
        # method calls ------------------------------------------------
        if isinstance(fn, ast.Attribute):
            if fn.attr == "bit_length":
                inner = _as_cost(self.eval(fn.value))
                if inner is not None and any(
                        "N" in t.powers or "Z" in t.powers
                        for t in inner):
                    return [Term(1, {"logN": 1})]
                return None
            if fn.attr == "get":
                return self.eval_subscript_of(fn.value)
            return None
        if not isinstance(fn, ast.Name):
            return None
        name = fn.id
        args = [self.eval(a) for a in node.args]
        costs = [_as_cost(a) for a in args]

        if name in ("int", "float", "round", "ceil", "floor", "abs",
                    "list", "tuple", "sorted"):
            return args[0] if args else None
        if name == "range":
            return self.range_span(node)
        if name == "len":
            return self.eval_len(node.args[0]) if node.args else None
        if name == "sized":
            if args and args[0] is RESULT:
                return [Term(1, {"Z": 1})]
            return [Term(1, {"N": 1})]
        if name == "max":
            symbolic = [c for c in costs
                        if c is not None
                        and any(not t.is_constant for t in c)]
            if symbolic:
                # sum >= max: a safe upper bound, same asymptotics
                return add(*symbolic)
            known = [c for c in costs if c is not None]
            if known:
                return max(known, key=lambda c: sum(t.coeff for t in c))
            return None
        if name == "min":
            arms: List[Cost] = []
            for a in args:
                if isinstance(a, MinBound):
                    arms.extend(a.arms)
                else:
                    c = _as_cost(a)
                    if c is not None and any(
                            not t.is_constant for t in c):
                        arms.append(c)
            if len(arms) > 1:
                return MinBound(arms)
            if arms:
                return arms[0]
            known = [c for c in costs if c is not None]
            if known:
                return min(known, key=lambda c: sum(t.coeff for t in c))
            return None

        # the closed-form vocabulary ----------------------------------
        size = costs[0] if costs else None
        if name == "scan_io":
            if size is None:
                return None
            return mul(size, [Term(1, {"B": -1})])
        if name == "sort_io":
            if size is None:
                return None
            return mul(size, [Term(1, {"B": -1}),
                              Term(1, {"B": -1, "logm": 1})])
        if name == "merge_passes":
            return [Term(1.0), Term(1, {"logm": 1})]
        if name == "search_io":
            return [Term(1, {"logB": 1})]
        if name == "output_io":
            z = costs[1] if len(costs) > 1 else [Term(1, {"Z": 1})]
            return add([Term(1, {"logB": 1})],
                       mul(z or [Term(1, {"Z": 1})],
                           [Term(1, {"B": -1})]))
        if name == "permute_io":
            if size is None:
                return None
            return MinBound([size,
                             mul(size, [Term(1, {"B": -1}),
                                        Term(1, {"B": -1, "logm": 1})])])
        if name in ("transpose_io", "list_ranking_io"):
            if size is None:
                size = [Term(1, {"N": 1})]
            return mul(size, [Term(1, {"B": -1}),
                              Term(1, {"B": -1, "logm": 1})])
        if name == "buffer_tree_amortized_io":
            return [Term(1, {"B": -1, "logm": 1})]

        # a sibling theory helper (``_by_sort_theory(machine, n)``) ----
        if self.module is not None and self.depth < 4:
            callee = self.module.functions.get(name)
            if callee is not None and callee.cls is None:
                return eval_theory_function(
                    callee.node, self.module, args, self.depth + 1)
        return None

    # -- hooks ---------------------------------------------------------

    def range_span(self, node: ast.Call) -> object:
        """``range(start, stop, step)`` -> symbolic trip count."""
        args = node.args
        if not args:
            return None
        stop = args[1] if len(args) >= 2 else args[0]
        step = args[2] if len(args) >= 3 else None
        span = _as_cost(self.eval(stop))
        if span is None:
            return None
        if step is not None:
            step_cost = _as_cost(self.eval(step))
            if step_cost is not None and len(step_cost) == 1 and (
                    not step_cost[0].is_constant
                    or step_cost[0].coeff > 1):
                span = normalized([t.over(step_cost[0]) for t in span])
        return span

    def eval_len(self, node: ast.AST) -> object:
        value = self.eval(node)
        if value is RESULT:
            return [Term(1, {"Z": 1})]
        if value is CALLDATA:
            return [Term(1, {"N": 1})]
        return _as_cost(value)

    def eval_subscript_of(self, node: ast.AST) -> object:
        value = self.eval(node)
        if value is CALLDATA:
            return CALLDATA
        return None


# ---------------------------------------------------------------------
# Theory function bodies
# ---------------------------------------------------------------------

def _recognize_level_loop(loop: ast.While,
                          evaluator: SymEval) -> Optional[str]:
    """``while size > base: size = ceil(size / fan); levels += 1`` —
    the counter is a pass count: ``logm`` for an m-derived fan,
    ``logN`` for a constant fan."""
    counter = None
    fan_class = None
    for stmt in loop.body:
        if isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.target, ast.Name) \
                and isinstance(stmt.op, ast.Add):
            counter = stmt.target.id
        shrink = None
        if isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.op, ast.FloorDiv):
            shrink = stmt.value
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            for sub in ast.walk(stmt.value):
                if isinstance(sub, ast.BinOp) \
                        and isinstance(sub.op, ast.FloorDiv):
                    shrink = sub.right
                    break
        if shrink is not None:
            fan = _as_cost(evaluator.eval(shrink))
            if fan is not None and any("M" in t.powers for t in fan):
                fan_class = "logm"
            else:
                fan_class = "logm" if fan is None else "logN"
    if counter is not None and fan_class is not None:
        evaluator.env[counter] = [Term(1, {fan_class: 1})]
        return counter
    return None


def eval_theory_function(node: ast.AST, module: ModuleInfo,
                         args: Optional[List[object]] = None,
                         depth: int = 0) -> Optional[object]:
    """Evaluate a theory callable's body; returns a Cost or MinBound."""
    evaluator = SymEval(module, depth)
    params = [a.arg for a in node.args.args]
    defaults: List[object] = [MACHINE, [Term(1, {"N": 1})],
                              RESULT, CALLDATA]
    for i, param in enumerate(params):
        if args is not None and i < len(args) and args[i] is not None:
            evaluator.env[param] = args[i]
        elif param in ("machine", "m"):
            evaluator.env[param] = MACHINE
        elif param == "result":
            evaluator.env[param] = RESULT
        elif param == "call":
            evaluator.env[param] = CALLDATA
        elif i < len(defaults):
            evaluator.env[param] = defaults[i]

    if isinstance(node, ast.Lambda):
        return evaluator.eval(node.body)

    returns: List[object] = []

    def run(stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                evaluator.env[stmt.targets[0].id] = \
                    evaluator.eval(stmt.value)
            elif isinstance(stmt, ast.AugAssign) \
                    and isinstance(stmt.target, ast.Name):
                current = evaluator.env.get(stmt.target.id)
                update = evaluator.eval(ast.BinOp(
                    left=ast.Name(id=stmt.target.id, ctx=ast.Load()),
                    op=stmt.op, right=stmt.value)) \
                    if current is not None else None
                evaluator.env[stmt.target.id] = update
            elif isinstance(stmt, ast.While):
                _recognize_level_loop(stmt, evaluator)
            elif isinstance(stmt, ast.If):
                run(stmt.body)
                run(stmt.orelse)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                returns.append(evaluator.eval(stmt.value))

    run(node.body)
    # prefer the last return with a symbolic cost (the general case);
    # guard returns (constants, inf) come first in these helpers
    best = None
    for value in returns:
        if isinstance(value, MinBound):
            best = value
        else:
            cost = _as_cost(value)
            if cost is not None and any(
                    not t.is_constant for t in cost):
                best = cost
    if best is None:
        for value in returns:
            if value is not INFINITY and value is not None:
                best = value
    return best


def _io_bound_decorator(func: FunctionInfo) -> Optional[ast.Call]:
    for dec in func.node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            target.id if isinstance(target, ast.Name) else ""
        if name == "io_bound" and isinstance(dec, ast.Call) and dec.args:
            return dec
    return None


def declared_bound(func: FunctionInfo, project: Project
                   ) -> Optional[DeclaredBound]:
    """The theory callable's symbolic bound, or ``None`` if the
    decorator is absent or uninterpretable.  A theory named by import
    is found in ``project``."""
    dec = _io_bound_decorator(func)
    if dec is None:
        return None
    theory = dec.args[0]
    module = func.module
    value: object = None
    if isinstance(theory, ast.Lambda):
        value = eval_theory_function(theory, module)
    elif isinstance(theory, ast.Name):
        target = module.functions.get(theory.id)
        if target is None and theory.id in module.imports:
            found = project.functions_by_name.get(theory.id, [])
            target = found[0] if len(found) == 1 else None
        if target is not None:
            value = eval_theory_function(target.node, target.module)
    if isinstance(value, MinBound):
        return DeclaredBound(value.arms)
    cost = _as_cost(value)
    if cost is None or not any(not t.is_constant for t in cost):
        return None
    return DeclaredBound([cost])


# ---------------------------------------------------------------------
# Docstring bound classes (EM205)
# ---------------------------------------------------------------------

_DOC_CLASS_MARKERS = {
    "sort": ("sort(", "log_{m", "log_m(", "log_{m/b}", "logm",
             "merge pass", "passes over"),
    "search": ("log_b", "log_{b}", "height of the tree"),
    "quadratic": ("²", "^2", "**2", "quadratic", "·e/b", "v·e"),
    "scan": ("scan(", "n/b", "e/b", "z/b", "v/b", "(n + z)/b",
             "one pass", "read pass", "single pass", "linear pass"),
    "linear": ("per record", "per update", "2n", "θ(n)", "o(n)",
               "min(n,", "min(n ,", "n i/os", "one i/o per"),
}


def doc_classes(docstring: Optional[str]) -> Set[str]:
    if not docstring:
        return set()
    text = docstring.lower()
    found = set()
    for cls, markers in _DOC_CLASS_MARKERS.items():
        if any(marker in text for marker in markers):
            found.add(cls)
    return found


def bound_class(cost: Cost) -> Optional[str]:
    """Coarse class of a bound's leading term, for EM205."""
    from .expr import leading_term

    lead = leading_term(cost)
    if lead is None or lead.has_unknown:
        return None
    p = lead.powers
    n_exp = p.get("N", 0) + p.get("Z", 0)
    if n_exp >= 2 or (n_exp >= 1 and p.get("M", 0) < 0):
        return "quadratic"
    if n_exp >= 1 and p.get("B", 0) < 0:
        if p.get("logm", 0) > 0 or p.get("logN", 0) > 0:
            return "sort"
        return "scan"
    if n_exp >= 1:
        return "linear"
    if p.get("logB", 0) > 0:
        return "search"
    return None
