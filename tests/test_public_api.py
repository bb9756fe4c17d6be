"""The public API surface: everything advertised resolves and works."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import repro

import figure1
import per_node


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_snippet(self):
        """The README / docstring quickstart must keep working verbatim."""
        from repro import FaultConfig, decay_broadcast, path

        outcome = decay_broadcast(
            path(64), faults=FaultConfig.receiver(0.3), rng=1
        )
        assert outcome.success
        assert outcome.rounds > 0


class TestChannelValidation:
    def test_invalid_broadcaster_rejected(self):
        import numpy as np

        from repro import Channel, FaultConfig, path
        from repro.core.errors import SimulationError

        channel = Channel(path(3), FaultConfig.faultless(), rng=0)
        with pytest.raises(SimulationError):
            channel.transmit(np.array([99], dtype=np.int64))
        with pytest.raises(SimulationError):
            channel.transmit(np.array(["a"]))

    @pytest.mark.parametrize("contention", [False, True], ids=["default", "mac"])
    def test_broadcaster_array_is_validated(self, contention):
        """A round's broadcasters are one strictly ascending 1-D int64
        array of ids in [0, n): anything else is named, not resolved, and
        the round does not advance."""
        import numpy as np

        from repro import Channel, FaultConfig, path
        from repro.core.errors import SimulationError
        from repro.mac.channel import ContentionChannel

        make = ContentionChannel if contention else Channel
        channel = make(path(3), FaultConfig.faultless(), rng=0)
        bad = [
            (np.array([True, False]), "dtype bool"),
            (np.array([1.0]), "dtype float64"),
            (np.array([[0, 1]], dtype=np.int64), "2-D array"),
            (np.array([2, 0], dtype=np.int64), "descending ids 2, 0"),
            (np.array([1, 1], dtype=np.int64), "duplicate node id 1, 1"),
            (np.array([-1], dtype=np.int64), "node id -1 is outside"),
            (np.array([0, 3], dtype=np.int64), r"node id 3 is outside \[0, 3\)"),
            ([0, 1], "got a list"),
            ({1: None}, "got a dict"),
        ]
        for broadcasters, problem in bad:
            with pytest.raises(SimulationError, match=problem):
                channel.transmit(broadcasters)
            assert channel.round_index == 0
        channel.transmit(np.array([0, 2], dtype=np.int64))
        assert channel.round_index == 1

    @pytest.mark.parametrize(
        "name",
        [
            "repro.core.engine.Channel",
            "repro.mac.channel.ContentionChannel",
            "repro.core.engine.Simulator",
            "repro.mac.saturation.saturation_sim",
        ],
    )
    def test_the_channel_picks_its_own_kernel(self, name):
        """No entry point takes a kernel switch: each round's kernel follows
        from its gather work (``Channel.VECTORIZE_MIN_WORK``) alone."""
        import importlib
        import inspect

        module, attr = name.rsplit(".", 1)
        entry = getattr(importlib.import_module(module), attr)
        assert "kernel" not in inspect.signature(entry).parameters


class TestProtocolContract:
    """The per-node references' own contract (they live in ``per_node``)."""

    def test_single_message_protocols_reject_foreign_packets(self):
        from per_node import DecayProtocol, ProtocolError
        from repro.coding.rlnc import CodedPacket
        from repro.util.rng import RandomSource

        protocol = DecayProtocol(8, RandomSource(0))
        with pytest.raises(ProtocolError):
            protocol.on_receive(0, CodedPacket(b"\x01", b""), sender=1)


class TestErrorHierarchy:
    def test_all_domain_errors_derive_from_repro_error(self):
        from repro.core.errors import ReproError, SimulationError, TopologyError

        for error_type in (TopologyError, SimulationError):
            assert issubclass(error_type, ReproError)


class TestOneProtocolSeam:
    """The program runs every algorithm on array layers: no module under
    ``src/repro`` defines, imports or builds a per-node protocol."""

    MODULES = ("per_node", "repro.core.protocol", "repro.core.packets")

    def test_per_node_modules_are_gone(self):
        for name in self.MODULES[1:]:
            assert importlib.util.find_spec(name) is None, name

    def test_no_program_module_touches_a_per_node_name(self):
        assert not _program_uses(set(per_node.__all__) | set(self.MODULES))


class TestFigure1StaysInTests:
    """The paper's Figure 1 instance is a test fixture, ``tests/figure1.py``:
    no program module defines or imports it."""

    MODULES = ("figure1", "repro.gbst.figure1")

    def test_the_program_module_is_gone(self):
        assert importlib.util.find_spec("repro.gbst.figure1") is None

    def test_no_program_module_touches_a_figure1_name(self):
        assert not _program_uses(set(figure1.__all__) | set(self.MODULES))


def _program_uses(banned):
    """``file:line name`` of every definition or import of a ``banned``
    name under ``src/repro``."""
    offences = []
    for module, tree in _program_modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += [alias.name for alias in node.names]
            else:
                continue
            offences += [
                f"{module}:{node.lineno} {name}" for name in names if name in banned
            ]
    return offences


def _program_modules():
    """(path relative to the package root, parsed tree) of every module
    under ``src/repro``."""
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root).as_posix(), ast.parse(
            path.read_text(), str(path)
        )


class TestOneRunDriver:
    """Every algorithm and schedule on the channel runs through one
    driver, ``repro.algorithms.base.run_broadcast``: it alone builds a
    ``Simulator``, and so a channel, binds a timeline and adds a run's
    counters to the metrics, so the engine imports no timeline code and
    neither the engine nor the MAC any telemetry code."""

    def test_only_the_driver_builds_a_simulator(self):
        callers = [
            name
            for name, tree in _program_modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "Simulator"
            in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
        assert callers == ["algorithms/base.py"]

    def test_no_schedule_builds_a_channel(self):
        """The algorithms, schedules and experiments run every round on
        the driver's simulator: none of them builds a channel."""
        callers = [
            f"{name}:{node.lineno}"
            for name, tree in _program_modules()
            if name.startswith(("algorithms/", "schedules/", "experiments/"))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and {"Channel", "ContentionChannel"}
            & {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
        ]
        assert not callers

    @pytest.mark.parametrize(
        "packages, banned",
        [(("core/",), "repro.timeline"), (("core/", "mac/"), "repro.telemetry")],
    )
    def test_the_engine_imports_no_timeline_code(self, packages, banned):
        imports = []
        for name, tree in _program_modules():
            if not name.startswith(packages):
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                imports += [
                    f"{name}:{node.lineno} {module}"
                    for module in modules
                    if module == banned or module.startswith(banned + ".")
                ]
        assert not imports


class TestOneJobPath:
    """Every service job runs through the journaled coordinator: the job
    manager and the HTTP server hand scenarios to its lease queue and
    never run one themselves."""

    def test_the_service_runs_no_scenario_itself(self):
        imports = [
            f"{name}:{node.lineno} {alias.name}"
            for name, tree in _program_modules()
            if name in ("service/jobs.py", "service/server.py")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name in ("run", "run_batch")
        ]
        assert not imports


class TestNetworkxLeavesTheRunPath:
    """The fixed families build their own adjacency. Only the seeded
    ``gnp`` and ``tree`` families draw through networkx, and they import it
    when they build, so ``import repro`` and a run on a fixed family never
    load it."""

    def test_only_the_random_families_import_networkx(self):
        imports = []
        for name, tree in _program_modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(module.split(".")[0] == "networkx" for module in modules):
                    imports.append((name, node in tree.body))
        # inside gnp and random_tree, and in the registry's preload before
        # a fork pool: none at module level
        assert sorted(imports) == [
            ("topologies/random_graphs.py", False),
            ("topologies/random_graphs.py", False),
            ("topologies/registry.py", False),
        ]

    SCRIPT = """
import sys
sys.modules["networkx"] = None  # an import of networkx now raises
import repro
from repro.topologies import registry

families = sorted(
    name
    for name, builder in registry.TOPOLOGY_FAMILIES.items()
    if builder in registry._SEED_FREE
)
for family in families:
    report = repro.run(
        repro.Scenario(
            algorithm="fastbc",
            topology=family,
            topology_params={"n": 16},
            faults=repro.FaultConfig.receiver(0.3),
            seed=1,
        )
    )
    assert report.success, family
loaded = [name for name in sys.modules if name.split(".")[0] == "networkx"]
assert loaded == ["networkx"] and sys.modules["networkx"] is None, loaded
print(" ".join(families))
"""

    @staticmethod
    def _python(script: str) -> str:
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_fixed_families_run_without_networkx(self):
        assert self._python(self.SCRIPT).split() == [
            "bramble", "caterpillar", "complete", "cycle", "grid", "layered",
            "path", "single_link", "star",
        ]

    POOL_SCRIPT = """
import sys
import repro

def batch(family):
    return [
        repro.Scenario("decay", topology=family, topology_params={"n": 16}, seed=s)
        for s in range(4)
    ]

repro.run_batch(batch("grid"), processes=2)
print("networkx" in sys.modules)
repro.run_batch(batch("gnp"), processes=2)
print("networkx" in sys.modules)
"""

    def test_a_fork_pool_loads_networkx_first_only_for_random_families(self):
        """The workers of a pool running ``gnp`` or ``tree`` scenarios
        share the parent's networkx instead of each importing it."""
        assert self._python(self.POOL_SCRIPT).split() == ["False", "True"]
