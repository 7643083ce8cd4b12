"""Guard analysis edge cases: polarity, else branches, loops, dominance."""

from repro import api
from repro.decompiler import lift
from repro.minisol import compile_source


def kinds_of(source):
    result = api.analyze(compile_source(source).runtime)
    return {w.kind for w in result.warnings}


class TestPolarity:
    def test_else_branch_of_sender_check_is_unguarded(self):
        """if (msg.sender == owner) {} else { selfdestruct } — the else
        branch runs exactly when the sender check FAILS: not guarded."""
        kinds = kinds_of(
            """
contract C {
    address owner;
    uint256 log;
    constructor() { owner = msg.sender; }
    function f() public {
        if (msg.sender == owner) {
            log = 1;
        } else {
            selfdestruct(owner);
        }
    }
}
"""
        )
        assert "accessible-selfdestruct" in kinds

    def test_then_branch_is_guarded(self):
        kinds = kinds_of(
            """
contract C {
    address owner;
    constructor() { owner = msg.sender; }
    function f() public {
        if (msg.sender == owner) {
            selfdestruct(owner);
        }
    }
}
"""
        )
        assert kinds == set()

    def test_double_negation_guard(self):
        kinds = kinds_of(
            """
contract C {
    address owner;
    constructor() { owner = msg.sender; }
    function f() public {
        require(!(!(msg.sender == owner)));
        selfdestruct(owner);
    }
}
"""
        )
        assert kinds == set()

    def test_negated_guard_does_not_protect(self):
        kinds = kinds_of(
            """
contract C {
    address owner;
    constructor() { owner = msg.sender; }
    function f() public {
        require(!(msg.sender == owner));
        selfdestruct(owner);
    }
}
"""
        )
        assert "accessible-selfdestruct" in kinds


class TestControlFlowShapes:
    def test_guard_after_loop_still_protects(self):
        kinds = kinds_of(
            """
contract C {
    address owner;
    uint256 acc;
    constructor() { owner = msg.sender; }
    function f(uint256 n) public {
        uint256 i = 0;
        while (i < n) { i += 1; acc += i; }
        require(msg.sender == owner);
        selfdestruct(owner);
    }
}
"""
        )
        assert kinds == set()

    def test_loop_body_writes_are_unguarded_taint(self):
        kinds = kinds_of(
            """
contract C {
    address owner;
    constructor() { }
    function f(address o, uint256 n) public {
        uint256 i = 0;
        while (i < n) {
            owner = o;
            i += 1;
        }
    }
    function kill() public {
        require(msg.sender == owner);
        selfdestruct(owner);
    }
}
"""
        )
        assert "tainted-owner-variable" in kinds
        assert "accessible-selfdestruct" in kinds

    def test_guard_inside_one_branch_only(self):
        """The sink sits on a path where one branch checked the sender and
        the other did not: reachable via the unchecked branch."""
        kinds = kinds_of(
            """
contract C {
    address owner;
    uint256 mode;
    constructor() { owner = msg.sender; }
    function f(uint256 m) public {
        if (m == 1) {
            require(msg.sender == owner);
            mode = 1;
        } else {
            mode = 2;
        }
        selfdestruct(owner);
    }
}
"""
        )
        assert "accessible-selfdestruct" in kinds

    def test_sequential_guards_both_required(self):
        kinds = kinds_of(
            """
contract C {
    address owner;
    mapping(address => bool) admins;
    constructor() { owner = msg.sender; admins[msg.sender] = true; }
    function f() public {
        require(admins[msg.sender]);
        require(msg.sender == owner);
        selfdestruct(owner);
    }
}
"""
        )
        assert kinds == set()


class TestGuardThroughLocals:
    def test_sender_cached_in_local(self):
        kinds = kinds_of(
            """
contract C {
    address owner;
    constructor() { owner = msg.sender; }
    function f() public {
        address who = msg.sender;
        require(who == owner);
        selfdestruct(owner);
    }
}
"""
        )
        assert kinds == set()

    def test_owner_cached_in_local(self):
        kinds = kinds_of(
            """
contract C {
    address owner;
    constructor() { owner = msg.sender; }
    function f() public {
        address boss = owner;
        require(msg.sender == boss);
        selfdestruct(boss);
    }
}
"""
        )
        assert kinds == set()


class TestDecompilerLoops:
    def test_while_loop_forms_cfg_cycle(self):
        source = """
contract C {
    uint256 acc;
    function f(uint256 n) public {
        uint256 i = 0;
        while (i < n) { i += 1; acc += i; }
    }
}
"""
        program = lift(compile_source(source).runtime)
        assert program.unresolved_jumps == []
        # At least one block participates in a cycle (reaches itself).
        def reaches(start, goal, seen=None):
            seen = seen or set()
            for successor in program.blocks[start].successors:
                if successor == goal:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    if reaches(successor, goal, seen):
                        return True
            return False

        assert any(reaches(b, b) for b in program.blocks)
