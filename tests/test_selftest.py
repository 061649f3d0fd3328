"""The selftest on two processes: the parent makes every draw of the earlier
suites (the prefix) and then forks; the child runs the subspace and basis
suites (the suffix) from the generator it inherits, while the parent runs
the prefix families on their instances and the MHD suite.

Every prefix draw is made once, in the parent; the report is the one of
running every suite in-process, in order; and no child outlives
``selftest.run``, whether it returns or raises.  The fork itself is
``specblock.forked``, tested at the end.
"""

import os
import signal
import sys
import time
import weakref

import numpy as np
import pytest

from specblock import cli, forked, selftest

FORKS = sys.platform.startswith("linux") and hasattr(os, "fork")
PREFIX = selftest._prefix
TABLE = selftest._PREFIX
needs_fork = pytest.mark.skipif(not FORKS, reason="the suffix runs in-process")


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def report(tmp_path, seed, name):
    """(exit code, report bytes) of ``specblock selftest --seed seed``."""
    out = tmp_path / name
    return cli.main(["selftest", "--seed", str(seed), "--out", str(out)]), \
        out.read_bytes()


def prefix_checks(rng, family, count, *args):
    """The checks of the prefix family named ``family`` on ``count``
    instances drawn from rng by its own draw in _PREFIX."""
    draw, = [draw for name, draw, _ in TABLE if name == family]
    instances = [draw(rng, idx) for idx in range(count)]
    return getattr(selftest, family)(instances, *args)


@pytest.mark.parametrize("forks", [True, False], ids=["forked", "in-process"])
def test_each_prefix_draw_runs_its_count_in_the_parent(forks, monkeypatch):
    parent, calls = os.getpid(), []

    def spy(position, draw):
        def counted(rng, idx):
            # raised in a child, this comes back through the pipe
            assert os.getpid() == parent, "a prefix draw ran in the child"
            calls.append((position, idx))
            return draw(rng, idx)
        return counted

    monkeypatch.setattr(selftest, "_PREFIX", tuple(
        (family, spy(position, draw), count)
        for position, (family, draw, count) in enumerate(TABLE)))
    if not forks:
        monkeypatch.delattr(os, "fork", raising=False)
    selftest.run(5)
    assert calls == [(position, idx) for position, (_, _, count)
                     in enumerate(TABLE) for idx in range(count)]
    assert_no_child()


def test_stacked_lets_go_of_each_instance_it_hands_out():
    rng = np.random.default_rng(3)
    blocks = [selftest.random_block(rng) for _ in range(40)]
    freed = [weakref.ref(block) for block in blocks]

    def prepare(chunk):
        # taken out of the list before it is solved
        assert not any(block is held for block in chunk for held in blocks)
        return selftest._filled(chunk, ("eig_m",))

    handed = 0  # not enumerate, whose reused result tuple holds the block
    for block in selftest._stacked(blocks, 16, prepare):
        assert block.eig_m is not None
        del block
        assert freed[handed]() is None
        handed += 1
    assert handed == len(freed) and blocks == []


@pytest.mark.parametrize("seed", [14, 42])
def test_in_process_run_writes_the_same_bytes(seed, tmp_path, monkeypatch,
                                              selftest_42_runs):
    # Seed 14 keeps its known enclosures/soq failure, so it exits 1.
    if seed == 42:
        code, path = selftest_42_runs[0]
        two_process = code, path.read_bytes()
    else:
        served = []
        result = forked.Child.result
        monkeypatch.setattr(forked.Child, "result",
                            lambda child: served.append(1) or result(child))
        two_process = report(tmp_path, seed, "forked.json")
        assert served == ([1] if FORKS else [])
    assert_no_child()
    monkeypatch.delattr(os, "fork")
    assert report(tmp_path, seed, "in-process.json") == two_process
    assert two_process[0] == (1 if seed == 14 else 0)


class TestLifecycle:
    """The prefix, its draws and its families, and the MHD suite are stubbed
    out unless a case restores the prefix; the suffix is real or stubbed per
    case, and runs in the child where the platform forks."""

    @pytest.fixture(autouse=True)
    def cheap_prefix(self, monkeypatch):
        monkeypatch.setattr(selftest, "_PREFIX", ())
        monkeypatch.setattr(selftest, "_prefix", lambda drawn: ([], None))
        monkeypatch.setattr(selftest, "mhd_suite", lambda marks64: [])

    def test_returns_the_suffix_checks(self, monkeypatch):
        fixture = selftest.fixture_suite()
        monkeypatch.setattr(selftest, "_suffix", lambda rng: fixture)
        assert selftest.run(3).checks == fixture
        assert_no_child()

    def test_child_exception_is_raised(self, monkeypatch):
        def boom(rng, count=300):
            raise ValueError("boom")

        monkeypatch.setattr(selftest, "subspace_suite", boom)
        with pytest.raises(ValueError, match="boom") as raised:
            selftest.run(3)
        assert_no_child()
        if FORKS:
            assert "in boom" in str(raised.value.__cause__)

    @needs_fork
    def test_prefix_exception_kills_the_child(self, monkeypatch):
        def fail(instances):
            raise ArithmeticError("prefix")

        monkeypatch.setattr(selftest, "_suffix", lambda rng: time.sleep(60))
        monkeypatch.setattr(selftest, "_PREFIX", TABLE)
        monkeypatch.setattr(selftest, "_prefix", PREFIX)
        monkeypatch.setattr(selftest, "numeric_core_suite", fail)
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="prefix"):
            selftest.run(3)
        assert time.perf_counter() - start < 30.0
        assert_no_child()

    def test_failed_fork_runs_the_suffix_in_process(self, monkeypatch):
        def refuse():
            raise BlockingIOError("no process left")

        fixture = selftest.fixture_suite()
        monkeypatch.setattr(os, "fork", refuse, raising=False)
        monkeypatch.setattr(selftest, "_suffix", lambda rng: fixture)
        assert selftest.run(3).checks == fixture
        assert_no_child()


@needs_fork
class TestForked:
    def run(self, function, *args):
        child = forked.start(function, *args)
        try:
            return child.result()
        finally:
            child.close()
            assert_no_child()

    def test_result_comes_back(self):
        assert self.run(lambda x: [x, {"y": np.arange(3.0)}], 2)[0] == 2

    def test_exception_that_does_not_unpickle_is_named(self):
        def picky():
            raise Picky("one", "two")

        with pytest.raises(RuntimeError, match="Picky: one/two"):
            self.run(picky)

    def test_child_that_dies_raises_with_its_wait_status(self):
        with pytest.raises(RuntimeError, match=f"wait status {signal.SIGKILL}"):
            self.run(lambda: os.kill(os.getpid(), signal.SIGKILL))

    def test_child_writes_nothing(self, capfd):
        def noisy():
            print("to sys.stdout")
            print("to sys.stderr", file=sys.stderr)
            os.write(1, b"to fd 1")
            os.write(2, b"to fd 2")

        print("before the fork", end="")  # buffered, not yet written
        assert self.run(noisy) is None
        assert capfd.readouterr() == ("before the fork", "")

    def test_no_fork_off_linux(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert forked.start(print, "never") is None


class Picky(Exception):
    """Pickles, but cannot be rebuilt from its pickle."""

    def __init__(self, first, second):
        super().__init__(f"{first}/{second}")
