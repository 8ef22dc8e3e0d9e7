"""Command-line interface.

::

    repro experiments                 # list experiment ids and titles
    repro run E3 [--fast] [-j 4]      # run one experiment, print its table
    repro run all [--fast]            # run every experiment
    repro run E4 --trace out.jsonl    # also write per-run event traces
    repro report out.jsonl            # message-flow/freshness summary of a trace
    repro trace-stats reality         # statistics of a calibrated profile
    repro analyze-trace contacts.txt  # stats/centrality of a real trace file
    repro simulate --scheme hdr ...   # one ad-hoc simulation run
    repro predict --scheme hdr ...    # closed-form freshness predictions
    repro serve --source replay ...   # live service: stream contacts + HTTP API
    repro loadgen --rate 2000 ...     # fire Zipf queries at the live service
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence

import numpy as np


def _cmd_experiments(_args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    for exp_id, runner in EXPERIMENTS.items():
        doc = (sys.modules[runner.__module__].__doc__ or "").strip().splitlines()[0]
        print(f"{exp_id}  {doc}")
    return 0


def _resolve_jobs_or_complain(jobs) -> Optional[int]:
    """Resolve the worker count, printing a clean error instead of a
    traceback for an invalid ``--jobs`` or ``$REPRO_JOBS`` value."""
    from repro.experiments.parallel import resolve_jobs

    try:
        return resolve_jobs(jobs)
    except ValueError as exc:
        print(f"error: {exc}")
        return None


def _trace_dir_exists_or_complain(path) -> bool:
    """Refuse a ``--trace`` file whose directory does not exist, before
    any work: the trace is written only after the runs it records."""
    directory = Path(path).parent
    if directory.is_dir():
        return True
    print(f"error: --trace {path}: directory {directory} does not exist")
    return False


def _load_fault_plan_or_complain(path):
    """Load a ``--faults`` TOML plan, printing errors without tracebacks."""
    from repro.faults.plan import load_plan

    try:
        return load_plan(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.experiments import EXPERIMENTS, Settings

    if _resolve_jobs_or_complain(args.jobs) is None:
        return 2
    settings = Settings.fast() if args.fast else Settings()
    ids = list(EXPERIMENTS) if args.experiment.lower() == "all" else [args.experiment.upper()]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; known: {list(EXPERIMENTS)}")
        return 2
    fault_plan = None
    if args.faults:
        fault_plan = _load_fault_plan_or_complain(args.faults)
        if fault_plan is None:
            return 2
    checkpointing = (args.resume or args.checkpoint is not None
                     or args.job_timeout is not None
                     or args.max_retries is not None)
    if checkpointing:
        from repro.experiments.reliability import RetryPolicy

        try:
            policy = RetryPolicy(
                max_retries=2 if args.max_retries is None else args.max_retries,
                job_timeout=args.job_timeout,
            )
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
    if args.trace:
        from repro.experiments.runner import trace_output

        context = trace_output(args.trace)
    else:
        context = nullcontext()
    if fault_plan is not None:
        from repro.experiments.runner import fault_injection

        faults_context = fault_injection(fault_plan)
    else:
        faults_context = nullcontext()
    from repro.experiments.reliability import SweepIncomplete

    status = 0
    with context as sink, faults_context:
        for exp_id in ids:
            if checkpointing:
                from repro.experiments.checkpoint import SweepJournal
                from repro.experiments.reliability import resilient_execution

                directory = Path(args.checkpoint or ".repro-checkpoint") / exp_id
                journal = SweepJournal(directory, resume=args.resume)
                exp_context = resilient_execution(policy, journal)
            else:
                exp_context = nullcontext()
            try:
                with exp_context:
                    result = EXPERIMENTS[exp_id](settings, jobs=args.jobs)
            except SweepIncomplete as exc:
                print(f"error: {exp_id} incomplete: {exc}")
                status = 1
                continue
            except ValueError as exc:
                # a run the experiment cannot make (say, an executor
                # without a feature --faults or --trace asks for)
                print(f"error: {exp_id}: {exc}")
                return 2
            print(result)
            if args.export:
                from repro.analysis.export import export_result

                written = export_result(result, args.export)
                for path in written:
                    print(f"exported {path}")
            if checkpointing:
                print(f"checkpoint journal: {journal.journal_path} "
                      "(re-run with --resume to skip completed jobs)")
            print()
    if sink is not None and sink.output is not None:
        print(f"trace written to {sink.output} "
              f"({len(sink.entries)} file(s); inspect with 'repro report')")
    return status


def _load_scenario_or_complain(name_or_path: str, directory: str):
    """Resolve a scenario by registry name or file path, with clean errors."""
    from repro.scenarios import ScenarioError, load_registry, load_scenario

    if name_or_path.endswith(".toml") or "/" in name_or_path:
        try:
            return load_scenario(name_or_path)
        except (OSError, ScenarioError) as exc:
            print(f"error: {exc}")
            return None
    try:
        registry = load_registry(directory)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}")
        return None
    scenario = registry.get(name_or_path)
    if scenario is None:
        known = ", ".join(sorted(registry)) or "(none)"
        print(f"error: unknown scenario {name_or_path!r} in {directory}/ "
              f"(known: {known})")
        return None
    return scenario


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioError, load_registry

    if args.action == "list":
        try:
            registry = load_registry(args.dir)
        except (OSError, ScenarioError) as exc:
            print(f"error: {exc}")
            return 2
        if not registry:
            print(f"no scenarios found under {args.dir}/")
            return 0
        from repro.scenarios import grid_size

        width = max(len(name) for name in registry)
        for name, scenario in sorted(registry.items()):
            points = grid_size(scenario)
            suffix = f"  [{points} grid points]" if points > 1 else ""
            print(f"{name:<{width}}  {scenario.title}{suffix}")
        return 0

    if args.action == "validate":
        from repro.scenarios import expand_grid, load_scenario
        from repro.scenarios.compose import sweep_point_from_doc

        targets = args.names or sorted(
            str(p) for p in Path(args.dir).glob("*.toml")
        )
        if not targets:
            print(f"no scenarios found under {args.dir}/")
            return 2
        status = 0
        for target in targets:
            if target.endswith(".toml") or "/" in target:
                try:
                    scenario = load_scenario(target)
                except (OSError, ScenarioError) as exc:
                    print(f"error: {exc}")
                    status = 2
                    continue
            else:
                scenario = _load_scenario_or_complain(target, args.dir)
                if scenario is None:
                    status = 2
                    continue
            try:
                points = expand_grid(scenario)
                for point in points:
                    sweep_point_from_doc(point.doc)
            except (ScenarioError, ValueError) as exc:
                print(f"error: {exc}")
                status = 2
                continue
            plural = "s" if len(points) != 1 else ""
            print(f"ok: {scenario.path} ({scenario.name}, "
                  f"{len(points)} grid point{plural})")
        return status

    scenario = _load_scenario_or_complain(args.name, args.dir)
    if scenario is None:
        return 2

    if args.action == "show":
        from repro.scenarios import expand_grid

        print(f"name:        {scenario.name}")
        if scenario.title:
            print(f"title:       {scenario.title}")
        print(f"file:        {scenario.path}")
        if scenario.description:
            print(f"description: {scenario.description}")
        print(f"schemes:     {', '.join(scenario.schemes)}")
        points = expand_grid(scenario)
        print(f"grid points: {len(points)}")
        for point in points:
            if point.overrides:
                overrides = ", ".join(f"{k}={v}" for k, v in point.overrides)
                print(f"  {point.index}: {point.label}  ({overrides})")
            else:
                print(f"  {point.index}: {point.label}")
        return 0

    # action == "run"
    from contextlib import nullcontext

    from repro.analysis.aggregate import summarize
    from repro.experiments.parallel import run_sweep
    from repro.experiments.reliability import SweepIncomplete
    from repro.scenarios import ScenarioError as _ScenarioError
    from repro.scenarios import compose_scenario

    if _resolve_jobs_or_complain(args.jobs) is None:
        return 2
    try:
        grid_points, sweep_points = compose_scenario(scenario)
    except (_ScenarioError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    checkpointing = (args.resume or args.checkpoint is not None
                     or args.job_timeout is not None
                     or args.max_retries is not None)
    if checkpointing:
        from repro.experiments.checkpoint import SweepJournal
        from repro.experiments.reliability import (
            RetryPolicy,
            resilient_execution,
        )

        try:
            policy = RetryPolicy(
                max_retries=2 if args.max_retries is None else args.max_retries,
                job_timeout=args.job_timeout,
            )
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        directory = Path(args.checkpoint or ".repro-checkpoint") / scenario.name
        journal = SweepJournal(directory, resume=args.resume)
        exp_context = resilient_execution(policy, journal)
    else:
        exp_context = nullcontext()
    if args.trace:
        from repro.experiments.runner import trace_output

        context = trace_output(args.trace)
    else:
        context = nullcontext()
    title = scenario.title or scenario.name
    print(f"== scenario {scenario.name}: {title} ==")
    with context as sink:
        try:
            with exp_context:
                merged = run_sweep(sweep_points, jobs=args.jobs)
        except SweepIncomplete as exc:
            print(f"error: {scenario.name} incomplete: {exc}")
            return 1
        except ValueError as exc:
            print(f"error: {scenario.name}: {exc}")
            return 2
        for grid_point, results in zip(grid_points, merged):
            print(f"\n[{grid_point.index}] {grid_point.label}")
            for scheme in sweep_points[grid_point.index].schemes:
                runs = results.get(scheme, [])
                if not runs:
                    print(f"  {scheme:<10} (no completed runs)")
                    continue
                freshness = summarize([m.freshness for m in runs])
                line = (f"  {scheme:<10} freshness {freshness.mean:.3f} "
                        f"+/- {freshness.ci95:.3f}")
                if sweep_points[grid_point.index].with_queries:
                    answered = summarize(
                        [m.query_answer_ratio for m in runs]
                    )
                    line += f"  answered {answered.mean:.3f}"
                line += f"  ({len(runs)} seed(s))"
                print(line)
    if checkpointing:
        print(f"\ncheckpoint journal: {journal.journal_path} "
              "(re-run with --resume to skip completed jobs)")
    if sink is not None and sink.output is not None:
        print(f"trace written to {sink.output} "
              f"({len(sink.entries)} file(s); inspect with 'repro report')")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.export import load_trace, write_chrome_trace
    from repro.obs.report import format_trace_report

    try:
        records = load_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    print(format_trace_report(records, title=args.path))
    if args.chrome:
        count = write_chrome_trace(records, args.chrome)
        print(f"\nwrote {args.chrome} ({count} events; open in "
              "chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.mobility.calibration import get_profile, list_profiles

    if args.profile not in list_profiles():
        print(f"unknown profile {args.profile!r}; known: {list_profiles()}")
        return 2
    profile = get_profile(args.profile)
    trace = profile.generate(np.random.default_rng(args.seed))
    row = {"trace": profile.name, **trace.stats().as_row()}
    print(format_table([row], precision=2))
    return 0


def _cmd_analyze_trace(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.contacts.centrality import contact_centrality, rank_nodes
    from repro.contacts.intercontact import (
        aggregate_intercontact_samples,
        fit_exponential,
        ks_distance,
    )
    from repro.contacts.rates import mle_rates
    from repro.mobility.loaders import load_one_report, load_pairwise

    if args.format == "one":
        trace = load_one_report(args.path)
    else:
        trace = load_pairwise(args.path, time_scale=args.time_scale)
    print(format_table([{"trace": trace.name, **trace.stats().as_row()}],
                       precision=2))
    samples = aggregate_intercontact_samples(trace, normalise=True,
                                             min_gaps_per_pair=3)
    if len(samples):
        rate = fit_exponential(samples)
        print(f"\npair-normalised inter-contact gaps: {len(samples)} samples, "
              f"KS distance to fitted exponential {ks_distance(samples, rate):.3f}")
    rates = mle_rates(trace)
    scores = contact_centrality(rates, window=args.window_hours * 3600.0)
    top = rank_nodes(scores, top=args.top)
    print(f"\ntop {args.top} nodes by contact centrality "
          f"({args.window_hours:.0f} h window): "
          + ", ".join(f"{n}({scores[n]:.1f})" for n in top))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments.config import HOUR, Settings
    from repro.experiments.runner import run_once, make_trace

    settings = Settings(
        profile=args.profile,
        duration=args.days * 86400.0,
        num_caching_nodes=args.caching_nodes,
        refresh_interval=args.refresh_hours * HOUR,
        freshness_requirement=args.p_req,
        seeds=(args.seed,),
    )
    fault_plan = None
    if args.faults:
        fault_plan = _load_fault_plan_or_complain(args.faults)
        if fault_plan is None:
            return 2
    trace = make_trace(settings, args.seed)
    with_queries = args.backend == "object"
    try:
        metrics = run_once(trace, args.scheme, settings, seed=args.seed,
                           with_queries=with_queries, trace_path=args.trace,
                           fault_plan=fault_plan, backend=args.backend)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(f"backend           : {args.backend}")
    print(f"scheme            : {metrics.scheme}")
    print(f"freshness         : {metrics.freshness:.4f}")
    print(f"validity          : {metrics.validity:.4f}")
    print(f"on-time refreshes : {metrics.on_time_ratio:.4f}")
    print(f"refresh messages  : {metrics.messages:.0f}")
    print(f"msgs per update   : {metrics.messages_per_update:.2f}")
    if with_queries:
        print(f"queries issued    : {metrics.queries_issued}")
        print(f"query answered    : {metrics.query_answer_ratio:.4f}")
        print(f"query fresh ratio : {metrics.query_fresh_ratio:.4f}")
    if args.trace:
        print(f"trace written to  : {args.trace}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_json, export_rows
    from repro.analysis.tables import format_table
    from repro.contacts.intercontact import (
        aggregate_intercontact_samples,
        fit_exponential,
        ks_distance,
    )
    from repro.core.scheme import SCHEMES, scheme_variant
    from repro.experiments.config import HOUR, Settings
    from repro.experiments.runner import RunSpec, make_trace, prepare, score
    from repro.theory import FreshnessModel, agreement_band, compare

    if args.scheme not in SCHEMES:
        print(f"unknown scheme {args.scheme!r}; known: {sorted(SCHEMES)}")
        return 2
    settings = Settings.fast() if args.fast else Settings()
    if args.refresh_hours is not None:
        settings = settings.with_(refresh_interval=args.refresh_hours * HOUR)
    config = SCHEMES[args.scheme]
    if args.max_relays is not None:
        config = scheme_variant(args.scheme, max_relays=args.max_relays)
    spec = RunSpec(settings, args.seed, config)
    with prepare(spec) as runtime:
        try:
            model = FreshnessModel.from_runtime(
                runtime, query_rate=settings.query_rate
            )
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        prediction = model.predict()
        if args.simulate:
            runtime.run(until=settings.duration)

    samples = aggregate_intercontact_samples(make_trace(settings, args.seed),
                                             normalise=True,
                                             min_gaps_per_pair=3)
    ks = ks_distance(samples, fit_exponential(samples)) if len(samples) else 0.0
    tolerance = agreement_band(ks)

    measured = None
    if args.simulate:
        metrics = score(runtime, spec)
        measured = {name: getattr(metrics, name)
                    for name in ("freshness", "validity", "on_time_ratio")}
    report = compare(prediction, measured, tolerance=tolerance)
    title = (f"{args.scheme} on {settings.profile}, "
             f"R={settings.refresh_interval / HOUR:g}h, seed {args.seed}")
    print(report.format(title=title))
    print(f"\ntrace KS deviation from exponential: {ks:.3f} "
          f"(tolerance = band(KS), see docs/MODEL.md)")
    print()
    print(format_table(prediction.level_rows(), precision=3,
                       title="per-depth delivery probability "
                       "(fractions of the refresh interval)"))
    expected = prediction.expected_queries(settings.duration)
    print(f"\nexpected queries over {settings.duration / 86400.0:g} days: "
          f"{expected:,.0f} ({prediction.num_requesters} requesters)")
    if args.json:
        payload = {"scheme": args.scheme, "profile": settings.profile,
                   "seed": args.seed, "ks": ks, "tolerance": tolerance,
                   **prediction.as_dict()}
        print(f"wrote {export_json(args.json, payload)}")
    if args.export:
        print(f"wrote {export_rows(args.export, prediction.as_dict()['nodes'])}")
    if args.trace:
        from repro.obs.export import write_jsonl

        count = write_jsonl(report.records(time=runtime.sim.now), args.trace)
        print(f"wrote {args.trace} ({count} model.predict records; "
              "inspect with 'repro report')")
    return 0


def _cmd_serve_supervised(args: argparse.Namespace) -> int:
    """Supervise a child ``repro serve`` (same flags minus
    ``--supervised``, plus ``--resume``) that restarts from checkpoints."""
    from pathlib import Path

    from repro.service.supervisor import (
        RESTART_LOG,
        CrashLoop,
        RestartPolicy,
        Supervisor,
    )

    if not args.checkpoint:
        print("error: --supervised needs --checkpoint DIR "
              "(restarts resume from checkpoints)")
        return 2
    child_args = [a for a in sys.argv[1:] if a != "--supervised"]
    if "--resume" not in child_args:
        child_args.append("--resume")
    command = [sys.executable, "-m", "repro.cli", *child_args]
    policy = RestartPolicy(max_restarts=args.max_restarts,
                           min_healthy_s=args.min_healthy)
    supervisor = Supervisor(
        command, policy=policy,
        log_path=Path(args.checkpoint) / RESTART_LOG,
    )
    print(f"supervising: {' '.join(child_args)} "
          f"(max {policy.max_restarts} consecutive crashes)")
    try:
        code = supervisor.run()
    except CrashLoop as exc:
        print(f"error: {exc}")
        return 1
    if supervisor.restarts:
        print(f"supervisor: {supervisor.restarts} restart(s), "
              f"log in {supervisor.log_path}")
    return code


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import math
    import os
    import signal
    from pathlib import Path

    from repro.experiments.config import DAY, Settings
    from repro.service import FileTailSource, HttpApi, ReplaySource, SocketSource
    from repro.service.durability import (
        SPEC_FILE,
        BuildSpec,
        restore_service_async,
    )
    from repro.service.runtime import service_from_settings

    if args.supervised:
        return _cmd_serve_supervised(args)

    dilation = float(args.dilation)
    if dilation <= 0:
        print("error: --dilation must be positive (use 'inf' for unpaced)")
        return 2
    if args.source == "tail" and not args.file:
        print("error: --source tail needs --file CONTACTS.jsonl")
        return 2
    if args.resume and not args.checkpoint:
        print("error: --resume needs --checkpoint DIR")
        return 2
    fault_plan = None
    if args.faults:
        fault_plan = _load_fault_plan_or_complain(args.faults)
        if fault_plan is None:
            return 2
        if not fault_plan.has_stream_faults():
            print(f"note: {args.faults} has no [stream] faults; "
                  "the ingest feed runs clean")
            fault_plan = None
    bus = None
    if args.trace:
        from repro.obs.bus import EventBus

        bus = EventBus()
    settings = Settings.fast().with_(
        profile=args.profile,
        duration=args.days * DAY,
        seeds=(args.seed,),
    )
    ckpt_dir = Path(args.checkpoint) if args.checkpoint else None
    resume = (
        args.resume
        and ckpt_dir is not None
        and (ckpt_dir / SPEC_FILE).exists()
    )
    if args.resume and not resume:
        print(f"note: no checkpoint in {ckpt_dir}; starting fresh")

    service = None
    trace = None
    resume_cursor = None
    if not resume:
        service, trace = service_from_settings(
            settings,
            seed=args.seed,
            scheme=args.scheme,
            contact_queue=args.contact_queue,
            query_queue=args.query_queue,
            serve_rate=args.serve_rate,
            bus=bus,
        )
        if ckpt_dir is not None:
            spec = BuildSpec.from_settings(
                settings,
                seed=args.seed,
                scheme=args.scheme,
                contact_queue=args.contact_queue,
                query_queue=args.query_queue,
                serve_rate=args.serve_rate,
            )
            service.enable_checkpointing(
                ckpt_dir, spec=spec, interval_s=args.checkpoint_interval
            )

    def _arm_crash_hook() -> None:
        # test hook: REPRO_SERVE_CRASH_AT=N kills the process the first
        # time the checkpointer commits >= N journal records (a flag
        # file makes it once per checkpoint dir, so a supervised
        # restart does not crash again)
        crash_at = os.environ.get("REPRO_SERVE_CRASH_AT")
        if not crash_at or service.checkpointer is None:
            return
        threshold = int(crash_at)
        flag = ckpt_dir / "crashed.flag"
        checkpointer = service.checkpointer
        original = checkpointer.note_commit

        def crashing_note(commit: int) -> None:
            original(commit)
            if commit >= threshold and not flag.exists():
                flag.write_text("crashed\n", encoding="utf-8")
                os._exit(17)

        checkpointer.note_commit = crashing_note

    async def _serve() -> None:
        nonlocal service, trace, resume_cursor
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        api = None

        async def _start_api(svc) -> None:
            nonlocal api
            if args.http != "off":
                host, _, port = args.http.partition(":")
                api = HttpApi(svc, host or "127.0.0.1", int(port or 0))
                await api.start()
                print(f"serving queries on {api.url} "
                      "(/healthz /status /metrics /freshness /query?item=N)")

        if resume:
            restored = await restore_service_async(
                ckpt_dir,
                interval_s=(args.checkpoint_interval
                            if args.checkpoint_interval is not None
                            else 5.0),
                on_built=_start_api,
                bus=bus,
            )
            service, trace = restored.service, restored.trace
            resume_cursor = restored.cursor
            print(f"resumed from {ckpt_dir}: {restored.records} journal "
                  f"records, watermark {service.watermark:,.0f}s"
                  f"{' (digest verified)' if restored.verified else ''}")
        else:
            await _start_api(service)
        _arm_crash_hook()
        cursor = resume_cursor or 0
        if args.source == "replay":
            from repro.service.events import ContactEvent

            events = ContactEvent.from_contacts(trace)
            pace_from = (
                events[cursor].start if 0 < cursor < len(events) else 0.0
            )
            source = ReplaySource(events, dilation=dilation, stop=stop,
                                  start_at=min(cursor, len(events)),
                                  pace_from=pace_from)
        elif args.source == "tail":
            source = FileTailSource(args.file, stop=stop,
                                    start_offset=cursor)
        else:
            host, _, port = args.listen.partition(":")
            source = SocketSource(host or "127.0.0.1",
                                  int(port or 0), stop=stop,
                                  registry=service.stats, bus=bus)
            await source.start()
            print(f"ingesting contacts on tcp://{source.host}:{source.port}")
        if fault_plan is not None:
            from repro.faults.stream import StreamFaultInjector

            source = StreamFaultInjector(source, fault_plan, args.seed,
                                         registry=service.stats, bus=bus)
        if args.wall_limit is not None:
            loop.call_later(args.wall_limit, stop.set)
        try:
            await service.serve(source)
            interrupted = stop.is_set()
            finish = (
                args.finish
                or (args.source == "replay" and not interrupted)
            )
            if finish:
                service.finish()
        finally:
            await service.stop()
            if service.checkpointer is not None:
                service.checkpointer.close()
            if api is not None:
                await api.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler fallback
        pass
    status = service.status()
    contacts = status["contacts"]
    queries = status["queries"]
    freshness = status["freshness"]
    counters = service.stats.counters()
    print(f"sim time          : {status['sim_time']:,.0f}s "
          f"of {status['horizon']:,.0f}s")
    print(f"contacts ingested : {contacts['ingested']:.0f} "
          f"(late {contacts['shed_late']:.0f}, "
          f"unknown {contacts['shed_unknown']:.0f}, "
          f"malformed {contacts['malformed']:.0f})")
    rejected = counters.get("service.events.rejected", 0)
    if rejected:
        print(f"stream rejects    : {rejected:.0f} malformed line(s) "
              f"quarantined in {ckpt_dir}")
    print(f"queries           : served {queries['served']:.0f}, "
          f"shed {queries['shed']:.0f} "
          f"(p50 {queries['p50_ms']:.3f} ms, p95 {queries['p95_ms']:.3f} ms)")
    print(f"freshness         : {freshness['freshness']:.4f}, "
          f"validity {freshness['validity']:.4f} "
          f"({freshness['fresh']}/{freshness['total']} slots fresh)")
    if ckpt_dir is not None:
        written = counters.get("service.checkpoint.written", 0)
        journal = service.checkpointer.journal if service.checkpointer else None
        print(f"checkpoints       : {written:.0f} manifest(s) in {ckpt_dir}"
              + (f", journal {journal.records} records"
                 f" ({journal.bytes_written:,d} bytes)"
                 if journal is not None else ""))
    if service.runtime.sim.now >= service.horizon and not math.isnan(
        freshness["freshness"]
    ):
        score = service.score()
        print(f"final score       : freshness {score['freshness']:.4f}, "
              f"validity {score['validity']:.4f}, "
              f"messages {score['messages']:.0f}")
        if args.score_json:
            import json as _json

            Path(args.score_json).write_text(
                _json.dumps(score, indent=2) + "\n", encoding="utf-8"
            )
            print(f"score written to  : {args.score_json}")
    if bus is not None:
        from repro.obs.export import write_jsonl

        count = write_jsonl(bus.records, args.trace)
        print(f"trace written to  : {args.trace} ({count} records; "
              "inspect with 'repro report')")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service import loadgen

    return loadgen.run_from_args(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cache-freshness maintenance in opportunistic mobile "
        "networks (ICDCS 2012 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list reproduced tables/figures")

    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id, e.g. E3, or 'all'")
    run_parser.add_argument("--fast", action="store_true",
                            help="scaled-down settings (small trace)")
    run_parser.add_argument("--export", metavar="DIR", default=None,
                            help="also write the raw data as CSV files to DIR")
    run_parser.add_argument("--jobs", "-j", type=int, default=None,
                            help="parallel worker processes (0 or -1 = one "
                            "per CPU; default: $REPRO_JOBS, else serial)")
    run_parser.add_argument("--trace", metavar="FILE", default=None,
                            help="write per-run JSONL event traces (one file "
                            "per (seed, scheme) job plus a merged manifest)")
    run_parser.add_argument("--faults", metavar="PLAN.toml", default=None,
                            help="inject faults from a TOML fault plan into "
                            "every simulation run (see docs/ROBUSTNESS.md)")
    run_parser.add_argument("--checkpoint", metavar="DIR", default=None,
                            help="journal completed jobs under DIR/<EXP> "
                            "(default: .repro-checkpoint)")
    run_parser.add_argument("--resume", action="store_true",
                            help="skip jobs already journaled in the "
                            "checkpoint dir by a matching interrupted run")
    run_parser.add_argument("--job-timeout", type=float, metavar="SECONDS",
                            default=None,
                            help="per-job wall-clock limit; timed-out jobs "
                            "retry (needs --jobs > 1)")
    run_parser.add_argument("--max-retries", type=int, metavar="N", default=None,
                            help="retries per failed/timed-out/crashed job "
                            "(default 2 when fault tolerance is active)")

    scenario_parser = sub.add_parser(
        "scenario", help="declarative TOML scenarios (see docs/SCENARIOS.md)"
    )
    scenario_sub = scenario_parser.add_subparsers(dest="action", required=True)

    def _scenario_dir(p):
        p.add_argument("--dir", metavar="DIR", default="scenarios",
                       help="scenario registry directory (default: scenarios/)")

    sc_list = scenario_sub.add_parser("list", help="list registered scenarios")
    _scenario_dir(sc_list)

    sc_show = scenario_sub.add_parser(
        "show", help="describe one scenario and its grid points"
    )
    sc_show.add_argument("name", help="registry name or path to a .toml file")
    _scenario_dir(sc_show)

    sc_validate = scenario_sub.add_parser(
        "validate", help="validate scenario files (all in --dir by default)"
    )
    sc_validate.add_argument("names", nargs="*",
                             help="registry names or .toml paths; default: "
                             "every file under --dir")
    _scenario_dir(sc_validate)

    sc_run = scenario_sub.add_parser("run", help="run a scenario's sweep grid")
    sc_run.add_argument("name", help="registry name or path to a .toml file")
    _scenario_dir(sc_run)
    sc_run.add_argument("--jobs", "-j", type=int, default=None,
                        help="parallel worker processes (0 or -1 = one per "
                        "CPU; default: $REPRO_JOBS, else serial)")
    sc_run.add_argument("--trace", metavar="FILE", default=None,
                        help="write per-run JSONL event traces")
    sc_run.add_argument("--checkpoint", metavar="DIR", default=None,
                        help="journal completed jobs under DIR/<name> "
                        "(default: .repro-checkpoint)")
    sc_run.add_argument("--resume", action="store_true",
                        help="skip jobs already journaled by a matching "
                        "interrupted run")
    sc_run.add_argument("--job-timeout", type=float, metavar="SECONDS",
                        default=None,
                        help="per-job wall-clock limit; timed-out jobs retry "
                        "(needs --jobs > 1)")
    sc_run.add_argument("--max-retries", type=int, metavar="N", default=None,
                        help="retries per failed/timed-out/crashed job "
                        "(default 2 when fault tolerance is active)")

    report_parser = sub.add_parser(
        "report", help="summarise a JSONL event trace (or manifest)"
    )
    report_parser.add_argument("path", help="trace .jsonl or *.manifest.json")
    report_parser.add_argument("--chrome", metavar="FILE", default=None,
                               help="also convert to Chrome trace-event JSON")

    stats_parser = sub.add_parser("trace-stats", help="statistics of a profile")
    stats_parser.add_argument("profile")
    stats_parser.add_argument("--seed", type=int, default=1)

    analyze_parser = sub.add_parser(
        "analyze-trace", help="statistics/centrality of an on-disk trace file"
    )
    analyze_parser.add_argument("path")
    analyze_parser.add_argument("--format", choices=["pairwise", "one"],
                                default="pairwise")
    analyze_parser.add_argument("--time-scale", type=float, default=1.0,
                                help="multiply file timestamps (e.g. 3600 for hours)")
    analyze_parser.add_argument("--window-hours", type=float, default=6.0)
    analyze_parser.add_argument("--top", type=int, default=10)

    sim_parser = sub.add_parser("simulate", help="one ad-hoc simulation")
    sim_parser.add_argument("--scheme", default="hdr")
    sim_parser.add_argument("--profile", default="small")
    sim_parser.add_argument("--days", type=float, default=3.0)
    sim_parser.add_argument("--caching-nodes", type=int, default=5)
    sim_parser.add_argument("--refresh-hours", type=float, default=4.0)
    sim_parser.add_argument("--p-req", type=float, default=0.9)
    sim_parser.add_argument("--seed", type=int, default=1)
    sim_parser.add_argument("--trace", metavar="FILE", default=None,
                            help="write the run's JSONL event trace to FILE")
    sim_parser.add_argument("--faults", metavar="PLAN.toml", default=None,
                            help="inject faults from a TOML fault plan")
    sim_parser.add_argument("--backend", choices=("object", "soa"),
                            default="object",
                            help="simulation engine: per-node object graph "
                            "(full-featured) or vectorised struct-of-arrays "
                            "(metric-identical, faster, no queries/tracing)")

    predict_parser = sub.add_parser(
        "predict",
        help="closed-form freshness predictions for a wired scheme",
    )
    predict_parser.add_argument("--scheme", default="hdr")
    predict_parser.add_argument("--fast", action="store_true",
                                help="scaled-down settings (small trace)")
    predict_parser.add_argument("--refresh-hours", type=float, default=None,
                                help="override the refresh interval")
    predict_parser.add_argument("--max-relays", type=int, default=None,
                                help="override the scheme's replication factor")
    predict_parser.add_argument("--seed", type=int, default=1)
    predict_parser.add_argument("--simulate", action="store_true",
                                help="also run the simulation and diff the "
                                "prediction against the measured metrics")
    predict_parser.add_argument("--json", metavar="FILE", default=None,
                                help="export the full prediction as JSON")
    predict_parser.add_argument("--export", metavar="FILE", default=None,
                                help="export the per-node predictions as CSV")
    predict_parser.add_argument("--trace", metavar="FILE", default=None,
                                help="write model.predict JSONL records "
                                "(best with --simulate)")

    serve_parser = sub.add_parser(
        "serve",
        help="long-running live service: stream contacts, answer queries",
    )
    serve_parser.add_argument("--scheme", default="hdr")
    serve_parser.add_argument("--profile", default="small")
    serve_parser.add_argument("--days", type=float, default=3.0,
                              help="simulation horizon in days")
    serve_parser.add_argument("--seed", type=int, default=1)
    serve_parser.add_argument("--source", choices=("replay", "tail", "tcp"),
                              default="replay",
                              help="contact feed: replay the profile's own "
                              "trace, tail a JSONL file, or accept TCP lines")
    serve_parser.add_argument("--file", metavar="CONTACTS.jsonl", default=None,
                              help="JSONL contact file for --source tail")
    serve_parser.add_argument("--listen", metavar="HOST:PORT",
                              default="127.0.0.1:0",
                              help="ingest endpoint for --source tcp")
    serve_parser.add_argument("--dilation", default="inf",
                              help="replay pacing in sim-seconds per wall "
                              "second (number or 'inf'; --source replay only)")
    serve_parser.add_argument("--http", metavar="HOST:PORT",
                              default="127.0.0.1:8642",
                              help="query/metrics HTTP endpoint ('off' to "
                              "disable)")
    serve_parser.add_argument("--contact-queue", type=int, default=256,
                              help="bounded ingest queue size (backpressure)")
    serve_parser.add_argument("--query-queue", type=int, default=1024,
                              help="bounded query queue size (sheds when full)")
    serve_parser.add_argument("--serve-rate", type=float, default=None,
                              help="throttle the query worker to N served/s")
    serve_parser.add_argument("--wall-limit", type=float, metavar="SECONDS",
                              default=None,
                              help="stop gracefully after this much wall time")
    serve_parser.add_argument("--finish", action="store_true",
                              help="always run remaining events to the "
                              "horizon on shutdown (replay mode does this "
                              "automatically when the stream completes)")
    serve_parser.add_argument("--trace", metavar="FILE", default=None,
                              help="write service.snapshot JSONL records")
    serve_parser.add_argument("--checkpoint", metavar="DIR", default=None,
                              help="journal the ingest stream and write "
                              "periodic crash-safe checkpoints into DIR")
    serve_parser.add_argument("--checkpoint-interval", type=float,
                              metavar="SECONDS", default=None,
                              help="wall seconds between checkpoint "
                              "manifests (default 5)")
    serve_parser.add_argument("--resume", action="store_true",
                              help="restore from the latest checkpoint in "
                              "--checkpoint DIR before serving (falls back "
                              "to a fresh start when DIR is empty)")
    serve_parser.add_argument("--supervised", action="store_true",
                              help="run the service as a supervised child, "
                              "restarting it from checkpoints on crashes "
                              "(requires --checkpoint)")
    serve_parser.add_argument("--max-restarts", type=int, default=5,
                              help="supervised: consecutive crashes before "
                              "the circuit breaker gives up")
    serve_parser.add_argument("--min-healthy", type=float, metavar="SECONDS",
                              default=5.0,
                              help="supervised: uptime that resets the "
                              "consecutive-crash counter")
    serve_parser.add_argument("--faults", metavar="PLAN.toml", default=None,
                              help="inject [stream] faults from a fault "
                              "plan into the ingest feed")
    serve_parser.add_argument("--score-json", metavar="FILE", default=None,
                              help="write the final score as JSON when the "
                              "run reaches the horizon")

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="fire Zipf queries at a live service and report latency",
    )
    from repro.service import loadgen

    loadgen.add_arguments(loadgen_parser)

    return parser


@contextmanager
def _terminate_as_interrupt():
    """Deliver SIGTERM as ``KeyboardInterrupt`` for the command's duration.

    Long-running commands (sweeps, simulate, serve) hold open state --
    ``TraceSink`` allocations, checkpoint journals, half-written
    exports -- whose context managers flush in their ``finally`` blocks.
    Raising through the normal unwind path lets all of that flush on a
    polite ``kill``, exactly as it already does on Ctrl-C, instead of
    dying mid-write with a traceback.  (``repro serve`` installs its own
    asyncio handlers first; they win while its event loop runs.)
    """
    import signal

    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        previous = None
    try:
        yield
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace = getattr(args, "trace", None)
    if trace and not _trace_dir_exists_or_complain(trace):
        return 2
    handlers = {
        "experiments": _cmd_experiments,
        "run": _cmd_run,
        "scenario": _cmd_scenario,
        "report": _cmd_report,
        "trace-stats": _cmd_trace_stats,
        "analyze-trace": _cmd_analyze_trace,
        "simulate": _cmd_simulate,
        "predict": _cmd_predict,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
    }
    try:
        with _terminate_as_interrupt():
            return handlers[args.command](args)
    except KeyboardInterrupt:
        print("\ninterrupted -- shutting down cleanly", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
