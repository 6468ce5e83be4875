"""Outside-in host-time spans around the public entry points of each layer.

The benchmark measures end-to-end numbers with no wrappers installed.
A separate traced run calls :func:`install`, which replaces a fixed
list of functions and methods of the ``repro`` package with wrappers
that record one span per call: ``(name, layer, start, end, parent,
request)``.  Spans stay in memory until the run ends and are written
out by :meth:`Recorder.write`.

A span's *self time* is its duration minus the durations of its direct
children.  ``unattributed`` is the traced wall time not covered by any
root span (benchmark glue between calls), so the self times of all
spans plus ``unattributed`` tile the traced wall time exactly.

Nothing here edits the program: every wrapper is installed from this
file and :func:`uninstall` puts the original objects back, so an
untraced run executes exactly the code a user runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: One entry point per row: owner, attribute, span name, layer, kind.
#: The owner is a module (for a function) or ``module:Class`` (for a
#: method).  Kind ``call`` times the call; ``iter`` times every
#: ``next()`` on the returned iterator, because lazy streams do their
#: work while being consumed.  A module-level function is patched in
#: every loaded ``repro`` module that bound it by name, so ``from x
#: import f`` call sites see the wrapper too.  Every ``repro.ml``
#: classifier's ``fit`` / ``predict`` is added by :func:`_entry_points`.
_TABLE = """
repro.workloads.generators                  stream_timed_items     workloads.stream            workloads          iter
repro.workloads.generators                  stream_requests        workloads.stream            workloads          iter
repro.workloads.generators                  make_workload          workloads.make              workloads          call
repro.workloads.arrivals                    arrival_times          workloads.arrivals          workloads          call
repro.serving.options                       serve_trace            serving.facade.serve_trace  serving.facade     call
repro.serving.service:PartitioningService   submit                 serving.facade.submit       serving.facade     call
repro.serving.service:PartitioningService   submit_many            serving.facade.submit       serving.facade     call
repro.serving.service:PartitioningService   serve                  serving.facade.submit       serving.facade     call
repro.serving.service:PartitioningService   submit_graph           serving.facade.submit       serving.facade     call
repro.serving.eventloop:EventLoop           run                    serving.eventloop.run       serving.eventloop  call
repro.serving.service:PartitioningService   _submit                serving.service.submit      serving.service    call
repro.serving.service:PartitioningService   _submit_many           serving.service.submit      serving.service    call
repro.serving.service:PartitioningService   _submit_graph          serving.service.submit      serving.service    call
repro.serving.service:PartitioningService   _adapt                 serving.adapt               serving.service    call
repro.serving.service:PartitioningService   peek_prediction        serving.service.peek        serving.service    call
repro.serving.service:PartitioningService   refit_now              serving.service.refit       serving.service    call
repro.serving.service:PartitioningService   rewarm                 serving.service.rewarm      serving.service    call
repro.engine.sweep:SweepEngine              measure                engine.measure              engine             call
repro.engine.sweep:SweepEngine              measure_graph          engine.measure              engine             call
repro.engine.sweep:SweepEngine              sweep                  engine.sweep                engine             call
repro.engine.sweep:SweepEngine              sweep_with_energy      engine.sweep                engine             call
repro.core.database:TrainingDatabase        merge_timings          core.database.merge         core.database      call
repro.core.database:TrainingDatabase        upsert                 core.database.upsert        core.database      call
repro.core.database:TrainingDatabase        add                    core.database.add           core.database      call
repro.core.database:TrainingDatabase        matrices               core.database.matrices      core.database      call
repro.core.database:TrainingDatabase        excluding_program      core.database.select        core.database      call
repro.core.database:TrainingDatabase        for_program            core.database.select        core.database      call
repro.core.database:TrainingDatabase        for_machine            core.database.select        core.database      call
repro.core.predictor:PartitioningPredictor  predict                core.predictor.predict      core.predictor     call
repro.core.predictor:PartitioningPredictor  predict_features       core.predictor.predict      core.predictor     call
repro.core.predictor:PartitioningPredictor  predict_features_many  core.predictor.predict      core.predictor     call
repro.core.predictor:PartitioningPredictor  refit                  core.predictor.refit        core.predictor     call
repro.core.predictor:PartitioningModel      fit                    core.predictor.fit          core.predictor     call
repro.core.predictor:PartitioningModel      refit                  core.predictor.refit        core.predictor     call
repro.core.predictor:PartitioningModel      predict_features       core.predictor.predict      core.predictor     call
repro.core.predictor:PartitioningModel      predict_features_many  core.predictor.predict      core.predictor     call
repro.core.predictor:PartitioningModel      predict_many           core.predictor.predict      core.predictor     call
repro.core.predictor:PartitioningScorerModel  fit                  core.predictor.fit          core.predictor     call
repro.core.predictor:PartitioningScorerModel  refit                core.predictor.refit        core.predictor     call
repro.core.predictor:PartitioningScorerModel  predict_features     core.predictor.predict      core.predictor     call
repro.core.predictor:PartitioningScorerModel  predict_features_many  core.predictor.predict    core.predictor     call
repro.core.predictor:PartitioningScorerModel  predict_many         core.predictor.predict      core.predictor     call
repro.core.pipeline                         train_system           core.trainer.train_system   core.trainer       call
repro.core.trainer                          generate_training_data core.trainer.campaign       core.trainer       call
repro.core.trainer                          build_record           core.trainer.record         core.trainer       call
repro.core.evaluation                       evaluate_lopo          core.evaluation.lopo        core.evaluation    call
repro.compiler.frontend                     compile_kernel         compiler.compile            compiler           call
repro.core.features                         combined_features      compiler.features           compiler           call
repro.core.predictor:PartitioningPredictor  features_for           compiler.features           compiler           call
repro.runtime.measurement:Runner            run                    runtime.run                 runtime            call
repro.runtime.measurement:Runner            time_of                runtime.run                 runtime            call
repro.runtime.measurement:Runner            run_graph              runtime.run                 runtime            call
repro.runtime.scheduler                     execute_partitioned    runtime.execute             runtime            call
repro.runtime.plan                          plan_device_commands   runtime.plan                runtime            call
repro.fleet.router:FleetRouter              place                  fleet.place                 fleet.router       call
repro.fleet.router:FleetRouter              serve_on               fleet.serve                 fleet.router       call
repro.fleet.router:FleetRouter              apply_drift            fleet.drift                 fleet.router       call
repro.fleet.router:FleetRouter              rewarm_replica         fleet.rewarm                fleet.router       call
repro.cluster.router:ClusterRouter          place                  cluster.place               cluster.router     call
repro.cluster.router:ClusterRouter          speculative_index      cluster.speculate           cluster.router     call
repro.cluster.router:ClusterRouter          steal_candidates       cluster.steal               cluster.router     call
repro.cluster.router:ClusterRouter          serve_on               cluster.serve               cluster.router     call
repro.cluster.router:ClusterRouter          apply_drift            cluster.drift               cluster.router     call
repro.cluster.router:ClusterRouter          observe_completion     cluster.observe             cluster.router     call
"""

#: The layers, outermost first; every span belongs to exactly one.
LAYERS = (
    "workloads",
    "serving.facade",
    "serving.eventloop",
    "serving.service",
    "engine",
    "core.database",
    "core.predictor",
    "core.trainer",
    "core.evaluation",
    "ml",
    "compiler",
    "runtime",
    "fleet.router",
    "cluster.router",
)

_ML_METHODS = {"fit": "ml.fit", "predict": "ml.predict", "predict_proba": "ml.predict"}


def _entry_points() -> list[tuple[str, ...]]:
    import repro.ml as ml

    rows = [tuple(line.split()) for line in _TABLE.strip().splitlines()]
    for name in ml.__all__:
        cls = getattr(ml, name)
        if not (inspect.isclass(cls) and issubclass(cls, ml.Classifier)):
            continue
        for attr, span in _ML_METHODS.items():
            if attr in cls.__dict__:
                owner = f"{cls.__module__}:{cls.__name__}"
                rows.append((owner, attr, span, "ml", "call"))
    return rows


@dataclass
class Span:
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int  # index into Recorder.spans, -1 for a root span
    request: int  # request id the span serves, -1 outside any request


class Recorder:
    """In-memory span store with a call stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.wall_start_ns = 0
        self.wall_end_ns = 0

    def start_wall(self) -> None:
        self.wall_start_ns = time.perf_counter_ns()

    def stop_wall(self) -> None:
        self.wall_end_ns = time.perf_counter_ns()

    @property
    def wall_ns(self) -> int:
        return self.wall_end_ns - self.wall_start_ns

    def open(self, name: str, layer: str, request: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        if request < 0 and parent >= 0:
            request = self.spans[parent].request
        index = len(self.spans)
        start = time.perf_counter_ns()
        self.spans.append(Span(name, layer, start, 0, parent, request))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack corrupted: closed {index}, open {popped}")

    # -- aggregation ---------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Each span's duration minus its direct children's durations."""
        own = [s.end_ns - s.start_ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end_ns - s.start_ns
        return own

    def unattributed_ns(self) -> int:
        covered = sum(s.end_ns - s.start_ns for s in self.spans if s.parent < 0)
        return self.wall_ns - covered

    def summary(self) -> dict:
        """Per span name and per layer: outermost calls and self seconds.

        A name's ``calls`` counts only spans whose parent has another
        name, so a wrapped method calling a wrapped method of the same
        name (a predictor delegating to its model) counts once; a
        layer's ``calls`` counts entries into the layer from outside it.
        """
        own = self.self_ns()
        names: dict[str, dict] = {}
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for i, s in enumerate(self.spans):
            parent = self.spans[s.parent] if s.parent >= 0 else None
            entry = names.setdefault(
                s.name, {"layer": s.layer, "calls": 0, "spans": 0, "self_s": 0.0}
            )
            entry["spans"] += 1
            entry["self_s"] += own[i] / 1e9
            if parent is None or parent.name != s.name:
                entry["calls"] += 1
            layer = layers[s.layer]
            layer["self_s"] += own[i] / 1e9
            if parent is None or parent.layer != s.layer:
                layer["calls"] += 1
        return {
            "wall_s": self.wall_ns / 1e9,
            "unattributed_s": self.unattributed_ns() / 1e9,
            "layers": layers,
            "names": dict(sorted(names.items())),
        }

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then one JSON array per span.

        Span lines are ``[id, parent, name, layer, start_ns, end_ns,
        request]`` with times relative to the traced run's start.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.wall_start_ns
        with path.open("w") as out:
            out.write(json.dumps({**header, "summary": self.summary()}) + "\n")
            for i, s in enumerate(self.spans):
                row = [i, s.parent, s.name, s.layer]
                row += [s.start_ns - base, s.end_ns - base, s.request]
                out.write(json.dumps(row) + "\n")


def _request_id(args) -> int:
    for arg in args:
        rid = getattr(arg, "request_id", None)
        if isinstance(rid, int):
            return rid
    return -1


def _call_wrapper(fn, recorder: Recorder, name: str, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name, layer, _request_id(args))
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    wrapper.__perfbench_original__ = fn
    return wrapper


def _traced_iter(iterator, recorder: Recorder, name: str, layer: str):
    while True:
        index = recorder.open(name, layer, -1)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            recorder.close(index)
        yield item


def _iter_wrapper(fn, recorder: Recorder, name: str, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name, layer, -1)
        try:
            iterator = iter(fn(*args, **kwargs))
        finally:
            recorder.close(index)
        return _traced_iter(iterator, recorder, name, layer)

    wrapper.__perfbench_original__ = fn
    return wrapper


def wrap_iterable(iterable, recorder: Recorder | None, name: str, layer: str):
    """Time every ``next()`` of a benchmark-made stream as one span."""
    if recorder is None:
        return iterable
    return _traced_iter(iter(iterable), recorder, name, layer)


class Installation:
    """The wrappers one :func:`install` put in place, for :meth:`undo`."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(recorder: Recorder) -> Installation:
    """Wrap every entry point; returns the handle :func:`uninstall` needs."""
    assert_clean()
    done = Installation()
    try:
        for owner, attr, name, layer, kind in _entry_points():
            make = _iter_wrapper if kind == "iter" else _call_wrapper
            _install_one(done, owner, attr, lambda f: make(f, recorder, name, layer))
    except BaseException:
        done.undo()
        raise
    return done


def _install_one(done: Installation, owner: str, attr: str, make) -> None:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if class_name:
        cls = getattr(module, class_name)
        done.patch(cls, attr, make(cls.__dict__[attr]))
        return
    original = module.__dict__[attr]
    wrapper = make(original)
    for loaded in list(sys.modules.values()):
        name = getattr(loaded, "__name__", "")
        if name.startswith("repro") and vars(loaded).get(attr) is original:
            done.patch(loaded, attr, wrapper)


def uninstall(installation: Installation) -> None:
    installation.undo()
    assert_clean()


def installed() -> list[str]:
    """Dotted names of every entry point that is currently wrapped."""
    found = []
    for module_name, loaded in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{module_name}.{attr}")
            elif inspect.isclass(value) and value.__module__ == module_name:
                for method, member in vars(value).items():
                    if hasattr(member, "__perfbench_original__"):
                        found.append(f"{module_name}.{attr}.{method}")
    return found


def assert_clean() -> None:
    """Fail loudly if any wrapper is in place (untraced timing is pure)."""
    left = installed()
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left[:5]}")
