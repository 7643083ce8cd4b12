"""A concrete EVM interpreter.

The :class:`Machine` executes EVM bytecode against a pluggable state backend
(any object with :class:`repro.chain.state.WorldState`'s methods; that class
is the canonical implementation).  It supports the full instruction set emitted by the MiniSol
compiler plus the usual environment opcodes, nested ``CALL`` /
``DELEGATECALL`` / ``STATICCALL``, ``CREATE``, ``REVERT`` with state rollback,
and ``SELFDESTRUCT`` — the last being the one Ethainter-Kill verifies in the
instruction trace.

Gas accounting follows per-opcode base costs (see :mod:`repro.evm.opcodes`);
it exists so that infinite loops terminate and relative costs are sane, not
for consensus-grade accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.evm.disassembler import Instruction, disassemble
from repro.evm.hashing import UINT_MAX, keccak_int
from repro.evm.opcodes import opcode_by_value

SIGN_BIT = 1 << 255
ADDRESS_MASK = (1 << 160) - 1
MAX_CALL_DEPTH = 128
MAX_STACK = 1024


class ExecutionError(Exception):
    """Fatal execution failure (consumes all gas, like EVM exceptional halt)."""


class StackUnderflowError(ExecutionError):
    """An instruction popped more items than the stack holds."""


class OutOfGasError(ExecutionError):
    """The frame exhausted its gas allowance."""


class InvalidJumpError(ExecutionError):
    """A jump targeted a non-JUMPDEST offset (or push data)."""


class WriteProtectionError(ExecutionError):
    """A state-modifying opcode executed inside a STATICCALL frame."""


class Revert(Exception):
    """Non-fatal halt carrying return data; state is rolled back."""

    def __init__(self, data: bytes):
        super().__init__("execution reverted")
        self.data = data


@dataclass
class TraceEntry:
    """One executed instruction, as recorded in the VM trace."""

    depth: int
    pc: int
    op: str
    address: int


@dataclass
class CallContext:
    """Inputs to one call frame."""

    address: int
    caller: int
    origin: int
    value: int
    calldata: bytes
    code: bytes
    gas: int = 10_000_000
    static: bool = False
    depth: int = 0


@dataclass
class ExecutionResult:
    """Outcome of a top-level execution."""

    success: bool
    return_data: bytes = b""
    gas_used: int = 0
    error: Optional[str] = None
    trace: List[TraceEntry] = field(default_factory=list)
    destroyed: Set[int] = field(default_factory=set)
    logs: List[tuple] = field(default_factory=list)

    def executed(self, op_name: str) -> bool:
        """Whether ``op_name`` appears anywhere in the trace."""
        return any(entry.op == op_name for entry in self.trace)


def _to_signed(value: int) -> int:
    return value - (1 << 256) if value & SIGN_BIT else value


def _to_unsigned(value: int) -> int:
    return value & UINT_MAX


class _Memory:
    """Byte-addressable, zero-initialized, auto-expanding memory."""

    def __init__(self) -> None:
        self._data = bytearray()

    def _expand(self, size: int) -> None:
        if size > len(self._data):
            # Expand in 32-byte words like the EVM.
            new_size = ((size + 31) // 32) * 32
            self._data.extend(b"\x00" * (new_size - len(self._data)))

    def read(self, offset: int, size: int) -> bytes:
        if size == 0:
            return b""
        self._expand(offset + size)
        return bytes(self._data[offset : offset + size])

    def write(self, offset: int, data: bytes) -> None:
        if not data:
            return
        self._expand(offset + len(data))
        self._data[offset : offset + len(data)] = data

    def read_word(self, offset: int) -> int:
        return int.from_bytes(self.read(offset, 32), "big")

    def write_word(self, offset: int, value: int) -> None:
        self.write(offset, (value & UINT_MAX).to_bytes(32, "big"))

    def write_byte(self, offset: int, value: int) -> None:
        self.write(offset, bytes([value & 0xFF]))

    @property
    def size(self) -> int:
        return len(self._data)


class _Frame:
    """Mutable interpreter state for one call frame."""

    def __init__(self, ctx: CallContext, instructions: List[Instruction]):
        self.ctx = ctx
        self.stack: List[int] = []
        self.memory = _Memory()
        self.pc = 0
        self.gas = ctx.gas
        self.return_data = b""
        # Map code offset -> index into instruction list, for jumps.
        self.offset_index = {ins.offset: i for i, ins in enumerate(instructions)}
        self.instructions = instructions
        self.jumpdests = {
            ins.offset for ins in instructions if ins.name == "JUMPDEST"
        }

    def push(self, value: int) -> None:
        if len(self.stack) >= MAX_STACK:
            raise ExecutionError("stack overflow")
        self.stack.append(value & UINT_MAX)

    def pop(self) -> int:
        if not self.stack:
            raise StackUnderflowError("stack underflow")
        return self.stack.pop()

    def charge(self, amount: int) -> None:
        self.gas -= amount
        if self.gas < 0:
            raise OutOfGasError("out of gas")


class Machine:
    """Executes call frames against a state backend.

    The backend must provide ``get_code``, ``get_storage``, ``set_storage``,
    ``get_balance``, ``set_balance``, ``snapshot``, ``revert_to``, and
    ``mark_destroyed``; see :class:`repro.chain.state.WorldState`.
    """

    def __init__(self, state, block_number: int = 1, timestamp: int = 1_600_000_000):
        self.state = state
        self.block_number = block_number
        self.timestamp = timestamp
        self.trace: List[TraceEntry] = []
        self.destroyed: Set[int] = set()
        self.logs: List[tuple] = []

    # ------------------------------------------------------------------ API

    def execute(self, ctx: CallContext) -> ExecutionResult:
        """Run a top-level call and return its result.

        State changes are committed on success and rolled back on revert or
        exceptional halt.
        """
        self.trace = []
        self.destroyed = set()
        self.logs = []
        snapshot = self.state.snapshot()
        try:
            return_data, gas_left = self._run(ctx)
            for address in self.destroyed:
                self.state.mark_destroyed(address)
            self.state.commit(snapshot)
            return ExecutionResult(
                success=True,
                return_data=return_data,
                gas_used=ctx.gas - gas_left,
                trace=self.trace,
                destroyed=set(self.destroyed),
                logs=list(self.logs),
            )
        except Revert as revert:
            self.state.revert_to(snapshot)
            return ExecutionResult(
                success=False,
                return_data=revert.data,
                gas_used=ctx.gas,
                error="revert",
                trace=self.trace,
            )
        except ExecutionError as error:
            self.state.revert_to(snapshot)
            return ExecutionResult(
                success=False,
                gas_used=ctx.gas,
                error=str(error) or error.__class__.__name__,
                trace=self.trace,
            )

    # ------------------------------------------------------------ internals

    def _run(self, ctx: CallContext) -> "tuple[bytes, int]":
        """Interpret one frame; returns (return_data, gas_left)."""
        if ctx.depth > MAX_CALL_DEPTH:
            raise ExecutionError("call depth exceeded")
        frame = _Frame(ctx, disassemble(ctx.code))
        while True:
            if frame.pc >= len(ctx.code):
                return b"", frame.gas  # implicit STOP when running off the end
            index = frame.offset_index.get(frame.pc)
            if index is None:
                raise InvalidJumpError("pc 0x%x inside push data" % frame.pc)
            ins = frame.instructions[index]
            self.trace.append(
                TraceEntry(depth=ctx.depth, pc=ins.offset, op=ins.name, address=ctx.address)
            )
            frame.charge(ins.opcode.gas)
            outcome = self._step(frame, ins)
            if outcome is not None:
                return outcome, frame.gas

    def _step(self, frame: _Frame, ins: Instruction) -> Optional[bytes]:
        """Execute one instruction.  Returns return-data when halting."""
        name = ins.name
        ctx = frame.ctx
        push, pop = frame.push, frame.pop

        if ins.opcode.is_push:
            push(ins.operand or 0)
        elif ins.opcode.is_dup:
            n = ins.opcode.value - 0x80 + 1
            if len(frame.stack) < n:
                raise StackUnderflowError("DUP%d underflow" % n)
            push(frame.stack[-n])
        elif ins.opcode.is_swap:
            n = ins.opcode.value - 0x90 + 1
            if len(frame.stack) < n + 1:
                raise StackUnderflowError("SWAP%d underflow" % n)
            frame.stack[-1], frame.stack[-n - 1] = frame.stack[-n - 1], frame.stack[-1]
        elif name == "STOP":
            return b""
        elif name == "ADD":
            push(pop() + pop())
        elif name == "MUL":
            push(pop() * pop())
        elif name == "SUB":
            a, b = pop(), pop()
            push(a - b)
        elif name == "DIV":
            a, b = pop(), pop()
            push(0 if b == 0 else a // b)
        elif name == "SDIV":
            a, b = _to_signed(pop()), _to_signed(pop())
            if b == 0:
                push(0)
            else:
                quotient = abs(a) // abs(b)
                push(_to_unsigned(-quotient if (a < 0) != (b < 0) else quotient))
        elif name == "MOD":
            a, b = pop(), pop()
            push(0 if b == 0 else a % b)
        elif name == "SMOD":
            a, b = _to_signed(pop()), _to_signed(pop())
            if b == 0:
                push(0)
            else:
                result = abs(a) % abs(b)
                push(_to_unsigned(-result if a < 0 else result))
        elif name == "ADDMOD":
            a, b, n = pop(), pop(), pop()
            push(0 if n == 0 else (a + b) % n)
        elif name == "MULMOD":
            a, b, n = pop(), pop(), pop()
            push(0 if n == 0 else (a * b) % n)
        elif name == "EXP":
            base, exponent = pop(), pop()
            push(pow(base, exponent, 1 << 256))
        elif name == "SIGNEXTEND":
            width, value = pop(), pop()
            if width >= 31:
                push(value)
            else:
                bit = 8 * (width + 1) - 1
                mask = (1 << (bit + 1)) - 1
                if value & (1 << bit):
                    push(value | (UINT_MAX ^ mask))
                else:
                    push(value & mask)
        elif name == "LT":
            a, b = pop(), pop()
            push(1 if a < b else 0)
        elif name == "GT":
            a, b = pop(), pop()
            push(1 if a > b else 0)
        elif name == "SLT":
            a, b = _to_signed(pop()), _to_signed(pop())
            push(1 if a < b else 0)
        elif name == "SGT":
            a, b = _to_signed(pop()), _to_signed(pop())
            push(1 if a > b else 0)
        elif name == "EQ":
            push(1 if pop() == pop() else 0)
        elif name == "ISZERO":
            push(1 if pop() == 0 else 0)
        elif name == "AND":
            push(pop() & pop())
        elif name == "OR":
            push(pop() | pop())
        elif name == "XOR":
            push(pop() ^ pop())
        elif name == "NOT":
            push(UINT_MAX ^ pop())
        elif name == "BYTE":
            index, value = pop(), pop()
            push(0 if index >= 32 else (value >> (8 * (31 - index))) & 0xFF)
        elif name == "SHL":
            shift, value = pop(), pop()
            push(0 if shift >= 256 else value << shift)
        elif name == "SHR":
            shift, value = pop(), pop()
            push(0 if shift >= 256 else value >> shift)
        elif name == "SAR":
            shift, value = pop(), _to_signed(pop())
            if shift >= 256:
                push(0 if value >= 0 else UINT_MAX)
            else:
                push(_to_unsigned(value >> shift))
        elif name == "SHA3":
            offset, size = pop(), pop()
            push(keccak_int(frame.memory.read(offset, size)))
        elif name == "ADDRESS":
            push(ctx.address)
        elif name == "BALANCE":
            push(self.state.get_balance(pop() & ADDRESS_MASK))
        elif name == "SELFBALANCE":
            push(self.state.get_balance(ctx.address))
        elif name == "ORIGIN":
            push(ctx.origin)
        elif name == "CALLER":
            push(ctx.caller)
        elif name == "CALLVALUE":
            push(ctx.value)
        elif name == "CALLDATALOAD":
            offset = pop()
            data = ctx.calldata[offset : offset + 32]
            push(int.from_bytes(data.ljust(32, b"\x00"), "big"))
        elif name == "CALLDATASIZE":
            push(len(ctx.calldata))
        elif name == "CALLDATACOPY":
            dest, src, size = pop(), pop(), pop()
            data = ctx.calldata[src : src + size].ljust(size, b"\x00")
            frame.memory.write(dest, data)
        elif name == "CODESIZE":
            push(len(ctx.code))
        elif name == "CODECOPY":
            dest, src, size = pop(), pop(), pop()
            data = ctx.code[src : src + size].ljust(size, b"\x00")
            frame.memory.write(dest, data)
        elif name == "GASPRICE":
            push(1)
        elif name == "EXTCODESIZE":
            push(len(self.state.get_code(pop() & ADDRESS_MASK)))
        elif name == "EXTCODECOPY":
            address, dest, src, size = pop() & ADDRESS_MASK, pop(), pop(), pop()
            code = self.state.get_code(address)
            frame.memory.write(dest, code[src : src + size].ljust(size, b"\x00"))
        elif name == "EXTCODEHASH":
            code = self.state.get_code(pop() & ADDRESS_MASK)
            push(keccak_int(code) if code else 0)
        elif name == "RETURNDATASIZE":
            push(len(frame.return_data))
        elif name == "RETURNDATACOPY":
            dest, src, size = pop(), pop(), pop()
            if src + size > len(frame.return_data):
                raise ExecutionError("returndatacopy out of bounds")
            frame.memory.write(dest, frame.return_data[src : src + size])
        elif name == "BLOCKHASH":
            pop()
            push(0)
        elif name == "COINBASE":
            push(0)
        elif name == "TIMESTAMP":
            push(self.timestamp)
        elif name == "NUMBER":
            push(self.block_number)
        elif name == "DIFFICULTY":
            push(0)
        elif name == "GASLIMIT":
            push(30_000_000)
        elif name == "CHAINID":
            push(1)
        elif name == "POP":
            pop()
        elif name == "MLOAD":
            push(frame.memory.read_word(pop()))
        elif name == "MSTORE":
            offset, value = pop(), pop()
            frame.memory.write_word(offset, value)
        elif name == "MSTORE8":
            offset, value = pop(), pop()
            frame.memory.write_byte(offset, value)
        elif name == "SLOAD":
            push(self.state.get_storage(ctx.address, pop()))
        elif name == "SSTORE":
            if ctx.static:
                raise WriteProtectionError("SSTORE in static context")
            key, value = pop(), pop()
            self.state.set_storage(ctx.address, key, value)
        elif name == "JUMP":
            target = pop()
            if target not in frame.jumpdests:
                raise InvalidJumpError("invalid jump to 0x%x" % target)
            frame.pc = target
            return None
        elif name == "JUMPI":
            target, condition = pop(), pop()
            if condition != 0:
                if target not in frame.jumpdests:
                    raise InvalidJumpError("invalid jump to 0x%x" % target)
                frame.pc = target
                return None
        elif name == "PC":
            push(ins.offset)
        elif name == "MSIZE":
            push(frame.memory.size)
        elif name == "GAS":
            push(max(frame.gas, 0))
        elif name == "JUMPDEST":
            pass
        elif name.startswith("LOG"):
            if ctx.static:
                raise WriteProtectionError("LOG in static context")
            topic_count = int(name[3:])
            offset, size = pop(), pop()
            topics = [pop() for _ in range(topic_count)]
            self.logs.append((ctx.address, topics, frame.memory.read(offset, size)))
        elif name in ("CALL", "CALLCODE", "DELEGATECALL", "STATICCALL"):
            self._do_call(frame, name)
        elif name in ("CREATE", "CREATE2"):
            self._do_create(frame, name)
        elif name == "RETURN":
            offset, size = pop(), pop()
            return frame.memory.read(offset, size)
        elif name == "REVERT":
            offset, size = pop(), pop()
            raise Revert(frame.memory.read(offset, size))
        elif name == "INVALID" or name.startswith("UNKNOWN"):
            raise ExecutionError("invalid opcode %s" % name)
        elif name == "SELFDESTRUCT":
            if ctx.static:
                raise WriteProtectionError("SELFDESTRUCT in static context")
            beneficiary = pop() & ADDRESS_MASK
            balance = self.state.get_balance(ctx.address)
            self.state.set_balance(ctx.address, 0)
            self.state.set_balance(
                beneficiary, self.state.get_balance(beneficiary) + balance
            )
            self.destroyed.add(ctx.address)
            return b""
        else:  # pragma: no cover - table and interpreter should agree
            raise ExecutionError("unimplemented opcode %s" % name)

        frame.pc = ins.next_offset
        return None

    def _do_call(self, frame: _Frame, name: str) -> None:
        ctx = frame.ctx
        gas = frame.pop()
        target = frame.pop() & ADDRESS_MASK
        value = 0
        if name in ("CALL", "CALLCODE"):
            value = frame.pop()
        in_offset, in_size = frame.pop(), frame.pop()
        out_offset, out_size = frame.pop(), frame.pop()
        calldata = frame.memory.read(in_offset, in_size)

        if value and ctx.static:
            raise WriteProtectionError("value transfer in static context")

        # EIP-150 style: a frame can forward at most 63/64 of remaining gas.
        gas = min(gas, max(frame.gas - frame.gas // 64, 0))

        if name == "CALL":
            sub = CallContext(
                address=target,
                caller=ctx.address,
                origin=ctx.origin,
                value=value,
                calldata=calldata,
                code=self.state.get_code(target),
                gas=gas,
                static=ctx.static,
                depth=ctx.depth + 1,
            )
        elif name == "CALLCODE":
            sub = CallContext(
                address=ctx.address,
                caller=ctx.address,
                origin=ctx.origin,
                value=value,
                calldata=calldata,
                code=self.state.get_code(target),
                gas=gas,
                static=ctx.static,
                depth=ctx.depth + 1,
            )
        elif name == "DELEGATECALL":
            sub = CallContext(
                address=ctx.address,
                caller=ctx.caller,
                origin=ctx.origin,
                value=ctx.value,
                calldata=calldata,
                code=self.state.get_code(target),
                gas=gas,
                static=ctx.static,
                depth=ctx.depth + 1,
            )
        else:  # STATICCALL
            sub = CallContext(
                address=target,
                caller=ctx.address,
                origin=ctx.origin,
                value=0,
                calldata=calldata,
                code=self.state.get_code(target),
                gas=gas,
                static=True,
                depth=ctx.depth + 1,
            )

        if name == "CALL" and value:
            if self.state.get_balance(ctx.address) < value:
                frame.return_data = b""
                frame.push(0)
                return
            self.state.set_balance(
                ctx.address, self.state.get_balance(ctx.address) - value
            )
            self.state.set_balance(target, self.state.get_balance(target) + value)

        snapshot = self.state.snapshot()
        destroyed_before = set(self.destroyed)
        try:
            return_data, gas_left = self._run(sub)
            frame.gas -= gas - gas_left
            frame.return_data = return_data
            # NOTE: per EVM semantics the output is truncated to out_size and
            # NOT zero-padded — shorter return data leaves prior memory
            # contents intact.  The "unchecked tainted staticcall" bug class
            # (paper §3.5) depends on exactly this behaviour.
            frame.memory.write(out_offset, return_data[:out_size])
            frame.push(1)
        except Revert as revert:
            self.state.revert_to(snapshot)
            self.destroyed = destroyed_before
            frame.gas -= gas
            frame.return_data = revert.data
            frame.memory.write(out_offset, revert.data[:out_size])
            frame.push(0)
        except ExecutionError:
            self.state.revert_to(snapshot)
            self.destroyed = destroyed_before
            frame.gas -= gas
            frame.return_data = b""
            frame.push(0)

    def _do_create(self, frame: _Frame, name: str) -> None:
        ctx = frame.ctx
        if ctx.static:
            raise WriteProtectionError("CREATE in static context")
        value = frame.pop()
        offset, size = frame.pop(), frame.pop()
        salt = frame.pop() if name == "CREATE2" else None
        init_code = frame.memory.read(offset, size)
        if self.state.get_balance(ctx.address) < value:
            frame.push(0)
            return
        new_address = self.state.next_contract_address(ctx.address, salt, init_code)
        self.state.set_balance(
            ctx.address, self.state.get_balance(ctx.address) - value
        )
        self.state.create_account(new_address, balance=value)
        sub = CallContext(
            address=new_address,
            caller=ctx.address,
            origin=ctx.origin,
            value=value,
            calldata=b"",
            code=init_code,
            gas=max(frame.gas - frame.gas // 64, 0),
            depth=ctx.depth + 1,
        )
        snapshot = self.state.snapshot()
        try:
            runtime, gas_left = self._run(sub)
            frame.gas -= sub.gas - gas_left
            self.state.set_code(new_address, runtime)
            frame.push(new_address)
        except (Revert, ExecutionError):
            self.state.revert_to(snapshot)
            frame.gas -= sub.gas
            frame.push(0)
