"""EVM code generation for MiniSol.

Compilation model (close to what ``solc`` emits, which matters because the
Ethainter analysis keys on these idioms):

* **Storage layout** — state variables get sequential slots; a mapping element
  ``m[k]`` (``m`` at slot ``s``) lives at ``SHA3(pad32(k) ++ pad32(s))``,
  computed through the scratch memory at ``0x00..0x3F``, exactly like
  Solidity.  Nested mappings hash again with the outer element's slot.
* **Dispatch** — the first 4 calldata bytes select a public function;
  unmatched selectors fall through to a ``STOP`` fallback (so contracts can
  receive plain value transfers).
* **Calling convention** — locals and parameters live in memory at
  statically-assigned offsets (one 32-byte word each, globally unique per
  function, so internal calls never clobber the caller's frame; direct
  recursion is therefore unsupported and rejected at compile time).  Internal
  calls pass arguments by storing into the callee's parameter slots, push a
  return address, and ``JUMP``; the callee returns by storing its result into
  the shared return slot at ``0x40`` and jumping back.
* **Modifiers** — inlined: the modifier body replaces the function body with
  ``_;`` substituted by the (next) body, and modifier parameters substituted
  by the invocation's argument expressions.
* **Guards** — ``require(cond)`` compiles to ``ISZERO/JUMPI``-guarded
  ``REVERT``, the pattern the analysis recognizes as a guard.
* **staticcall patterns** — ``staticcall_unchecked(a)`` reproduces the 0x-bug
  pattern of paper §3.5 (output written over input, no ``RETURNDATASIZE``
  check); ``staticcall_checked(a)`` adds the return-data-size check that the
  fixed Solidity compilers emit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.evm.assembler import AsmItem, DataLabel, Label, LabelRef, Op, Push, RawBytes, assemble
from repro.evm.hashing import function_selector, keccak_int
from repro.minisol import ast_nodes as ast
from repro.minisol.checker import BUILTINS, CheckError
from repro.minisol.errors import MiniSolError

# Memory map.
HASH_SCRATCH = 0x00  # 0x00..0x3F: mapping-slot hashing
RETURN_SLOT = 0x40  # one word: internal-call return value
LOCALS_BASE = 0x80  # locals/params, one word each, statically allocated


class CodegenError(MiniSolError):
    """Internal code-generation failure (checked AST expected)."""


@dataclass
class FunctionLayout:
    """Static memory layout for one function's parameters and locals."""

    entry_label: str
    offsets: Dict[str, int] = field(default_factory=dict)

    def offset_of(self, name: str) -> int:
        return self.offsets[name]


class _ModifierInliner:
    """Produces a function body with all modifiers inlined."""

    def __init__(self, contract: ast.Contract):
        self.modifiers = {mod.name: mod for mod in contract.modifiers}

    def effective_body(self, fn: ast.FunctionDef) -> ast.Block:
        body: ast.Stmt = fn.body
        # The last-listed modifier wraps the body innermost.
        for invocation in reversed(fn.modifiers):
            modifier = self.modifiers[invocation.name]
            substitution = {
                param.name: arg
                for param, arg in zip(modifier.params, invocation.args)
            }
            wrapped = self._substitute(copy.deepcopy(modifier.body), substitution, body)
            body = wrapped
        if isinstance(body, ast.Block):
            return body
        return ast.Block(statements=[body])

    def _substitute(
        self, stmt: ast.Stmt, mapping: Dict[str, ast.Expr], inner: ast.Stmt
    ) -> ast.Stmt:
        if isinstance(stmt, ast.Placeholder):
            return inner
        if isinstance(stmt, ast.Block):
            stmt.statements = [
                self._substitute(child, mapping, inner) for child in stmt.statements
            ]
            return stmt
        if isinstance(stmt, ast.If):
            stmt.condition = self._substitute_expr(stmt.condition, mapping)
            stmt.then_branch = self._substitute(stmt.then_branch, mapping, inner)
            if stmt.else_branch is not None:
                stmt.else_branch = self._substitute(stmt.else_branch, mapping, inner)
            return stmt
        if isinstance(stmt, ast.While):
            stmt.condition = self._substitute_expr(stmt.condition, mapping)
            stmt.body = self._substitute(stmt.body, mapping, inner)
            return stmt
        if isinstance(stmt, ast.Require):
            stmt.condition = self._substitute_expr(stmt.condition, mapping)
            return stmt
        if isinstance(stmt, ast.Emit):
            stmt.args = [self._substitute_expr(a, mapping) for a in stmt.args]
            return stmt
        if isinstance(stmt, ast.VarDecl):
            if stmt.initializer is not None:
                stmt.initializer = self._substitute_expr(stmt.initializer, mapping)
            return stmt
        if isinstance(stmt, ast.Assign):
            stmt.target = self._substitute_expr(stmt.target, mapping)
            stmt.value = self._substitute_expr(stmt.value, mapping)
            return stmt
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                stmt.value = self._substitute_expr(stmt.value, mapping)
            return stmt
        if isinstance(stmt, ast.ExprStmt):
            stmt.expr = self._substitute_expr(stmt.expr, mapping)
            return stmt
        return stmt

    def _substitute_expr(self, expr: ast.Expr, mapping: Dict[str, ast.Expr]) -> ast.Expr:
        if isinstance(expr, ast.Identifier) and expr.name in mapping:
            return copy.deepcopy(mapping[expr.name])
        if isinstance(expr, ast.IndexAccess):
            expr.base = self._substitute_expr(expr.base, mapping)
            expr.index = self._substitute_expr(expr.index, mapping)
            return expr
        if isinstance(expr, ast.BinaryOp):
            expr.left = self._substitute_expr(expr.left, mapping)
            expr.right = self._substitute_expr(expr.right, mapping)
            return expr
        if isinstance(expr, ast.UnaryOp):
            expr.operand = self._substitute_expr(expr.operand, mapping)
            return expr
        if isinstance(expr, ast.CallExpr):
            expr.args = [self._substitute_expr(a, mapping) for a in expr.args]
            return expr
        if isinstance(expr, ast.ExternalCall):
            expr.target = self._substitute_expr(expr.target, mapping)
            if expr.value is not None:
                expr.value = self._substitute_expr(expr.value, mapping)
            expr.args = [self._substitute_expr(a, mapping) for a in expr.args]
            return expr
        return expr


class ContractCodegen:
    """Generates runtime and init bytecode for one checked contract."""

    def __init__(self, contract: ast.Contract):
        self.contract = contract
        self.state_vars = {var.name: var for var in contract.state_vars}
        self.functions = {fn.name: fn for fn in contract.functions}
        self.inliner = _ModifierInliner(contract)
        self.layouts: Dict[str, FunctionLayout] = {}
        self.effective_bodies: Dict[str, ast.Block] = {}
        self._label_counter = 0
        self._next_local = LOCALS_BASE
        self.call_buffer = LOCALS_BASE  # fixed up after layout
        self._current: Optional[str] = None  # function being compiled
        self._call_stack: List[str] = []  # for recursion detection

    # ------------------------------------------------------------- helpers

    def _fresh_label(self, hint: str) -> str:
        self._label_counter += 1
        return "%s_%d" % (hint, self._label_counter)

    def _allocate_layouts(self) -> None:
        items = list(self.contract.functions)
        if self.contract.constructor is not None:
            items.append(self.contract.constructor)
        for fn in items:
            layout = FunctionLayout(entry_label="fn_%s" % fn.name)
            body = self.inliner.effective_body(fn)
            self.effective_bodies[fn.name] = body
            for param in fn.params:
                layout.offsets[param.name] = self._next_local
                self._next_local += 32
            for name in self._collect_locals(body):
                if name not in layout.offsets:
                    layout.offsets[name] = self._next_local
                    self._next_local += 32
            self.layouts[fn.name] = layout
        self.call_buffer = self._next_local

    def _collect_locals(self, stmt: ast.Stmt) -> List[str]:
        names: List[str] = []
        if isinstance(stmt, ast.VarDecl):
            names.append(stmt.name)
        elif isinstance(stmt, ast.Block):
            for child in stmt.statements:
                names.extend(self._collect_locals(child))
        elif isinstance(stmt, ast.If):
            names.extend(self._collect_locals(stmt.then_branch))
            if stmt.else_branch is not None:
                names.extend(self._collect_locals(stmt.else_branch))
        elif isinstance(stmt, ast.While):
            names.extend(self._collect_locals(stmt.body))
        return names

    # ------------------------------------------------------------ emission

    def compile_runtime(self) -> bytes:
        """Runtime bytecode: dispatcher + public wrappers + function bodies."""
        if not self.layouts:
            self._allocate_layouts()
        items: List[AsmItem] = []
        public = [fn for fn in self.contract.functions if fn.is_public]

        # Dispatcher: selector = calldata[0:4].
        items.append(Push(0))
        items.append(Op("CALLDATALOAD"))
        items.append(Push(224))
        items.append(Op("SHR"))
        for fn in public:
            items.append(Op("DUP1"))
            items.append(Push(function_selector(fn.signature)))
            items.append(Op("EQ"))
            items.append(LabelRef("pub_%s" % fn.name))
            items.append(Op("JUMPI"))
        items.append(Op("STOP"))  # fallback: accept plain transfers

        # Public wrappers.
        for fn in public:
            layout = self.layouts[fn.name]
            items.append(Label("pub_%s" % fn.name))
            for index, param in enumerate(fn.params):
                items.append(Push(4 + 32 * index))
                items.append(Op("CALLDATALOAD"))
                items.append(Push(layout.offsets[param.name]))
                items.append(Op("MSTORE"))
            return_label = self._fresh_label("ret_pub_%s" % fn.name)
            items.append(LabelRef(return_label))
            items.append(LabelRef(layout.entry_label))
            items.append(Op("JUMP"))
            items.append(Label(return_label))
            if fn.return_type is not None:
                items.append(Push(RETURN_SLOT))
                items.append(Op("MLOAD"))
                items.append(Push(0))
                items.append(Op("MSTORE"))
                items.append(Push(32))
                items.append(Push(0))
                items.append(Op("RETURN"))
            else:
                items.append(Op("STOP"))

        # Function bodies (all functions, public and internal).
        for fn in self.contract.functions:
            items.extend(self._compile_function(fn))

        return assemble(items)

    def compile_init(self, runtime: bytes) -> bytes:
        """Init bytecode: run initializers + constructor, then return runtime.

        Constructor arguments are ABI-encoded and appended to the init code by
        the deployer (see :meth:`CompiledContract.init_with_args`); the
        prelude copies them from the code tail into the constructor's
        parameter slots.
        """
        if not self.layouts:
            self._allocate_layouts()
        items: List[AsmItem] = []
        ctor = self.contract.constructor

        if ctor is not None and ctor.params:
            layout = self.layouts["constructor"]
            count = len(ctor.params)
            for index, param in enumerate(ctor.params):
                items.append(Push(32))
                items.append(Op("CODESIZE"))
                items.append(Push(32 * (count - index)))
                items.append(Op("SWAP1"))
                items.append(Op("SUB"))
                items.append(Push(layout.offsets[param.name]))
                items.append(Op("CODECOPY"))

        # State variable initializers.
        for var in self.contract.state_vars:
            if var.initializer is None:
                continue
            self._current = "constructor" if ctor is not None else None
            items.extend(self._expr(var.initializer))
            items.append(Push(var.slot))
            items.append(Op("SSTORE"))

        # Constructor body, compiled inline (no call protocol needed).
        if ctor is not None:
            self._current = "constructor"
            self._call_stack = ["constructor"]
            body = self.effective_bodies["constructor"]
            exit_label = self._fresh_label("ctor_exit")
            items.extend(self._statement(body, exit_label=exit_label, inline=True))
            items.append(Label(exit_label))

        # Copy runtime to memory and return it.
        items.append(Push(len(runtime)))
        items.append(LabelRef("runtime_data"))
        items.append(Push(0))
        items.append(Op("CODECOPY"))
        items.append(Push(len(runtime)))
        items.append(Push(0))
        items.append(Op("RETURN"))
        items.append(DataLabel("runtime_data"))
        items.append(RawBytes(runtime))
        return assemble(items)

    # ----------------------------------------------------------- functions

    def _compile_function(self, fn: ast.FunctionDef) -> List[AsmItem]:
        layout = self.layouts[fn.name]
        self._current = fn.name
        self._call_stack = [fn.name]
        items: List[AsmItem] = [Label(layout.entry_label)]
        body = self.effective_bodies[fn.name]
        items.extend(self._statement(body, exit_label=None, inline=False))
        # Implicit return: zero the return slot and jump back.
        items.append(Push(0))
        items.append(Push(RETURN_SLOT))
        items.append(Op("MSTORE"))
        items.append(Op("JUMP"))  # pops the return address
        return items

    # ---------------------------------------------------------- statements

    def _statement(
        self, stmt: ast.Stmt, exit_label: Optional[str], inline: bool
    ) -> List[AsmItem]:
        """Compile one statement.

        ``inline`` is True for constructor bodies (no return-address on the
        stack; ``return`` jumps to ``exit_label`` instead).
        """
        items: List[AsmItem] = []
        if isinstance(stmt, ast.Block):
            for child in stmt.statements:
                items.extend(self._statement(child, exit_label, inline))
            return items
        if isinstance(stmt, ast.VarDecl):
            offset = self.layouts[self._current].offset_of(stmt.name)
            if stmt.initializer is not None:
                items.extend(self._expr(stmt.initializer))
            else:
                items.append(Push(0))
            items.append(Push(offset))
            items.append(Op("MSTORE"))
            return items
        if isinstance(stmt, ast.Assign):
            value: ast.Expr = stmt.value
            if stmt.op in ("+=", "-="):
                value = ast.BinaryOp(
                    line=stmt.line,
                    op=stmt.op[0],
                    left=copy.deepcopy(stmt.target),
                    right=stmt.value,
                )
            items.extend(self._expr(value))
            items.extend(self._store_lvalue(stmt.target))
            return items
        if isinstance(stmt, ast.If):
            else_label = self._fresh_label("else")
            end_label = self._fresh_label("endif")
            items.extend(self._expr(stmt.condition))
            items.append(Op("ISZERO"))
            items.append(LabelRef(else_label))
            items.append(Op("JUMPI"))
            items.extend(self._statement(stmt.then_branch, exit_label, inline))
            items.append(LabelRef(end_label))
            items.append(Op("JUMP"))
            items.append(Label(else_label))
            if stmt.else_branch is not None:
                items.extend(self._statement(stmt.else_branch, exit_label, inline))
            items.append(Label(end_label))
            return items
        if isinstance(stmt, ast.While):
            head_label = self._fresh_label("while")
            end_label = self._fresh_label("endwhile")
            items.append(Label(head_label))
            items.extend(self._expr(stmt.condition))
            items.append(Op("ISZERO"))
            items.append(LabelRef(end_label))
            items.append(Op("JUMPI"))
            items.extend(self._statement(stmt.body, exit_label, inline))
            items.append(LabelRef(head_label))
            items.append(Op("JUMP"))
            items.append(Label(end_label))
            return items
        if isinstance(stmt, ast.Emit):
            # LOG1 with the event signature hash as the topic and the
            # ABI-encoded arguments as data, like solc.
            event = next(e for e in self.contract.events if e.name == stmt.name)
            buffer = self.call_buffer
            for index, arg in enumerate(stmt.args):
                items.extend(self._expr(arg))
                items.append(Push(buffer + 32 * index))
                items.append(Op("MSTORE"))
            items.append(Push(keccak_int(event.signature.encode("ascii"))))
            items.append(Push(32 * len(stmt.args)))
            items.append(Push(buffer))
            items.append(Op("LOG1"))
            return items
        if isinstance(stmt, ast.Require):
            ok_label = self._fresh_label("require_ok")
            items.extend(self._expr(stmt.condition))
            items.append(LabelRef(ok_label))
            items.append(Op("JUMPI"))
            items.append(Push(0))
            items.append(Push(0))
            items.append(Op("REVERT"))
            items.append(Label(ok_label))
            return items
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                items.extend(self._expr(stmt.value))
            else:
                items.append(Push(0))
            items.append(Push(RETURN_SLOT))
            items.append(Op("MSTORE"))
            if inline:
                items.append(LabelRef(exit_label))
                items.append(Op("JUMP"))
            else:
                items.append(Op("JUMP"))  # return address is on the stack
            return items
        if isinstance(stmt, ast.ExprStmt):
            produced = self._expr(stmt.expr, as_statement=True)
            items.extend(produced.items if isinstance(produced, _ExprResult) else produced)
            if isinstance(produced, _ExprResult) and produced.pushes_value:
                items.append(Op("POP"))
            return items
        if isinstance(stmt, ast.Placeholder):  # pragma: no cover - inlined away
            raise CodegenError("placeholder outside modifier inlining")
        raise CodegenError("cannot compile statement %r" % stmt)

    def _store_lvalue(self, target: ast.Expr) -> List[AsmItem]:
        """Emit code that stores the value on the stack top into ``target``."""
        items: List[AsmItem] = []
        if isinstance(target, ast.Identifier):
            layout = self.layouts.get(self._current) if self._current else None
            if layout is not None and target.name in layout.offsets:
                items.append(Push(layout.offset_of(target.name)))
                items.append(Op("MSTORE"))
                return items
            var = self.state_vars[target.name]
            items.append(Push(var.slot))
            items.append(Op("SSTORE"))
            return items
        if isinstance(target, ast.IndexAccess):
            items.extend(self._mapping_slot(target))
            items.append(Op("SSTORE"))
            return items
        raise CodegenError("invalid lvalue %r" % target)

    # --------------------------------------------------------- expressions

    def _expr(self, expr: ast.Expr, as_statement: bool = False):
        """Compile an expression; leaves exactly one value on the stack.

        When ``as_statement`` is true, returns an :class:`_ExprResult` so the
        caller knows whether a value must be popped.
        """
        items = self._expr_items(expr)
        if as_statement:
            pushes = not (
                isinstance(expr, ast.CallExpr)
                and expr.name in ("selfdestruct",)
            )
            # Internal void function calls also leave a (zero) return value,
            # which the statement wrapper pops.
            return _ExprResult(items=items, pushes_value=pushes)
        return items

    def _expr_items(self, expr: ast.Expr) -> List[AsmItem]:
        items: List[AsmItem] = []
        if isinstance(expr, ast.NumberLiteral):
            items.append(Push(expr.value))
            return items
        if isinstance(expr, ast.BoolLiteral):
            items.append(Push(1 if expr.value else 0))
            return items
        if isinstance(expr, ast.MsgSender):
            items.append(Op("CALLER"))
            return items
        if isinstance(expr, ast.MsgValue):
            items.append(Op("CALLVALUE"))
            return items
        if isinstance(expr, ast.ThisExpr):
            items.append(Op("ADDRESS"))
            return items
        if isinstance(expr, ast.Identifier):
            layout = self.layouts.get(self._current) if self._current else None
            if layout is not None and expr.name in layout.offsets:
                items.append(Push(layout.offset_of(expr.name)))
                items.append(Op("MLOAD"))
                return items
            var = self.state_vars[expr.name]
            items.append(Push(var.slot))
            items.append(Op("SLOAD"))
            return items
        if isinstance(expr, ast.IndexAccess):
            items.extend(self._mapping_slot(expr))
            items.append(Op("SLOAD"))
            return items
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "!":
                items.extend(self._expr_items(expr.operand))
                items.append(Op("ISZERO"))
                return items
            if expr.op == "-":
                items.extend(self._expr_items(expr.operand))
                items.append(Push(0))
                items.append(Op("SUB"))
                return items
            raise CodegenError("unknown unary operator %r" % expr.op)
        if isinstance(expr, ast.CallExpr):
            if expr.name in self.functions:
                return self._internal_call(expr)
            if expr.name in BUILTINS:
                return self._builtin(expr)
            return self._internal_call(expr)
        if isinstance(expr, ast.ExternalCall):
            return self._external_call(expr)
        raise CodegenError("cannot compile expression %r" % expr)

    def _binary(self, expr: ast.BinaryOp) -> List[AsmItem]:
        """Binary operators; operands are evaluated right-then-left so the
        left operand ends on top (EVM binops pop the top operand first)."""
        op = expr.op
        items: List[AsmItem] = []
        if op in ("&&", "||"):
            # Normalize both operands to 0/1, then AND/OR.  Evaluation is
            # non-short-circuiting (documented MiniSol semantics).
            items.extend(self._expr_items(expr.left))
            items.append(Op("ISZERO"))
            items.append(Op("ISZERO"))
            items.extend(self._expr_items(expr.right))
            items.append(Op("ISZERO"))
            items.append(Op("ISZERO"))
            items.append(Op("AND" if op == "&&" else "OR"))
            return items
        items.extend(self._expr_items(expr.right))
        items.extend(self._expr_items(expr.left))
        simple = {
            "+": "ADD",
            "-": "SUB",
            "*": "MUL",
            "/": "DIV",
            "%": "MOD",
            "==": "EQ",
            "<": "LT",
            ">": "GT",
        }
        if op in simple:
            items.append(Op(simple[op]))
            return items
        if op == "!=":
            items.append(Op("EQ"))
            items.append(Op("ISZERO"))
            return items
        if op == "<=":
            items.append(Op("GT"))
            items.append(Op("ISZERO"))
            return items
        if op == ">=":
            items.append(Op("LT"))
            items.append(Op("ISZERO"))
            return items
        raise CodegenError("unknown binary operator %r" % op)

    def _mapping_slot(self, expr: ast.IndexAccess) -> List[AsmItem]:
        """Emit code leaving the storage slot of an indexed element on the
        stack.

        Mapping elements live at ``SHA3(key ++ parent_slot)`` (through the
        hash scratch); fixed-size array elements at ``base_slot + index`` —
        raw slot arithmetic with *no bounds check*, exactly the unrestricted
        write pattern StorageWrite-2 over-approximates."""
        items: List[AsmItem] = []
        base = expr.base
        if isinstance(base, ast.Identifier):
            var = self.state_vars[base.name]
            if isinstance(var.var_type, ast.ArrayType):
                items.extend(self._expr_items(expr.index))
                items.append(Push(var.slot))
                items.append(Op("ADD"))
                return items
            parent: List[AsmItem] = [Push(var.slot)]
        elif isinstance(base, ast.IndexAccess):
            parent = self._mapping_slot(base)
        else:
            raise CodegenError("invalid mapping base %r" % base)
        # Compute the parent slot and the key onto the stack *before* touching
        # the hash scratch: a nested-mapping parent (or a key containing a
        # mapping read) uses the scratch itself.
        items.extend(parent)  # [parent_slot]
        items.extend(self._expr_items(expr.index))  # [parent_slot, key]
        items.append(Push(HASH_SCRATCH))
        items.append(Op("MSTORE"))  # mem[0x00] = key
        items.append(Push(HASH_SCRATCH + 32))
        items.append(Op("MSTORE"))  # mem[0x20] = parent slot
        items.append(Push(64))
        items.append(Push(HASH_SCRATCH))
        items.append(Op("SHA3"))
        return items

    def _internal_call(self, expr: ast.CallExpr) -> List[AsmItem]:
        fn = self.functions.get(expr.name)
        if fn is None:
            raise CodegenError("unknown function %r" % expr.name)
        if expr.name in self._call_stack:
            raise CodegenError(
                "recursive call to %r: MiniSol allocates frames statically "
                "and does not support recursion" % expr.name
            )
        layout = self.layouts[expr.name]
        items: List[AsmItem] = []
        # Evaluate arguments left-to-right onto the stack, then store them
        # into the callee's parameter slots (reverse order off the stack).
        for arg in expr.args:
            items.extend(self._expr_items(arg))
        for param in reversed(fn.params):
            items.append(Push(layout.offsets[param.name]))
            items.append(Op("MSTORE"))
        return_label = self._fresh_label("ret_%s" % expr.name)
        items.append(LabelRef(return_label))
        items.append(LabelRef(layout.entry_label))
        items.append(Op("JUMP"))
        items.append(Label(return_label))
        items.append(Push(RETURN_SLOT))
        items.append(Op("MLOAD"))
        return items

    def _builtin(self, expr: ast.CallExpr) -> List[AsmItem]:
        name = expr.name
        items: List[AsmItem] = []
        if name == "selfdestruct":
            items.extend(self._expr_items(expr.args[0]))
            items.append(Op("SELFDESTRUCT"))
            return items
        if name == "balance":
            items.extend(self._expr_items(expr.args[0]))
            items.append(Op("BALANCE"))
            return items
        if name == "gasleft":
            items.append(Op("GAS"))
            return items
        if name == "sha3":
            items.extend(self._expr_items(expr.args[0]))
            items.append(Push(HASH_SCRATCH))
            items.append(Op("MSTORE"))
            items.append(Push(32))
            items.append(Push(HASH_SCRATCH))
            items.append(Op("SHA3"))
            return items
        if name == "transfer":
            # transfer(to, amount) -> CALL(gas, to, amount, 0, 0, 0, 0)
            items.append(Push(0))  # out size
            items.append(Push(0))  # out offset
            items.append(Push(0))  # in size
            items.append(Push(0))  # in offset
            items.extend(self._expr_items(expr.args[1]))  # value
            items.extend(self._expr_items(expr.args[0]))  # to
            items.append(Op("GAS"))
            items.append(Op("CALL"))
            return items
        if name == "delegatecall":
            # delegatecall(target) with empty calldata; pushes success flag.
            items.append(Push(0))  # out size
            items.append(Push(0))  # out offset
            items.append(Push(0))  # in size
            items.append(Push(0))  # in offset
            items.extend(self._expr_items(expr.args[0]))  # target
            items.append(Op("GAS"))
            items.append(Op("DELEGATECALL"))
            return items
        if name in ("staticcall_unchecked", "staticcall_checked"):
            buffer = self.call_buffer
            # One-word input at `buffer`; output written OVER the input —
            # the exact shape of the 0x bug (paper §3.5).
            items.append(Push(32))  # out size
            items.append(Push(buffer))  # out offset == in offset
            items.append(Push(32))  # in size
            items.append(Push(buffer))  # in offset
            items.extend(self._expr_items(expr.args[0]))  # target
            # The call's one-word input is the target address itself (stand-in
            # for the signature payload the 0x code passed); written into the
            # shared buffer the output will (or won't) overwrite.
            items.append(Op("DUP1"))
            items.append(Push(buffer))
            items.append(Op("MSTORE"))
            items.append(Op("GAS"))
            items.append(Op("STATICCALL"))
            if name == "staticcall_checked":
                # require(success && RETURNDATASIZE() >= 32)
                ok_label = self._fresh_label("sc_ok")
                items.append(Op("RETURNDATASIZE"))
                items.append(Push(32))
                items.append(Op("GT"))  # 32 > rds  <=>  rds < 32
                items.append(Op("ISZERO"))  # rds >= 32
                items.append(Op("AND"))
                items.append(LabelRef(ok_label))
                items.append(Op("JUMPI"))
                items.append(Push(0))
                items.append(Push(0))
                items.append(Op("REVERT"))
                items.append(Label(ok_label))
            else:
                items.append(Op("POP"))  # success flag discarded: "unchecked"
            items.append(Push(buffer))
            items.append(Op("MLOAD"))
            return items
        raise CodegenError("unknown builtin %r" % name)

    def _external_call(self, expr: ast.ExternalCall) -> List[AsmItem]:
        """ABI-encoded external call (CALL or DELEGATECALL per ``kind``);
        pushes the success flag."""
        buffer = self.call_buffer
        selector = function_selector(expr.signature)
        items: List[AsmItem] = []
        # Store selector in the high 4 bytes of the first buffer word.
        items.append(Push(selector << 224))
        items.append(Push(buffer))
        items.append(Op("MSTORE"))
        for index, arg in enumerate(expr.args):
            items.extend(self._expr_items(arg))
            items.append(Push(buffer + 4 + 32 * index))
            items.append(Op("MSTORE"))
        in_size = 4 + 32 * len(expr.args)
        items.append(Push(32))  # out size
        items.append(Push(buffer))  # out offset
        items.append(Push(in_size))
        items.append(Push(buffer))  # in offset
        if expr.kind == "delegatecall":
            items.extend(self._expr_items(expr.target))
            items.append(Op("GAS"))
            items.append(Op("DELEGATECALL"))
            return items
        if expr.value is not None:
            items.extend(self._expr_items(expr.value))
        else:
            items.append(Push(0))
        items.extend(self._expr_items(expr.target))
        items.append(Op("GAS"))
        items.append(Op("CALL"))
        return items


@dataclass
class _ExprResult:
    items: List[AsmItem]
    pushes_value: bool
