"""Self-tests of the benchmark: deterministic inputs, checks that catch a wrong
answer or a crash, the speed scaling, exact trace counts, and BENCHMARK.json
in step with run.py.

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

import run
import workloads as wl


class Inputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs_in_a_fresh_interpreter(self):
        code = ("import json, workloads as wl; print(json.dumps({w: wl.inputs_digest(w, 7) for w in wl.WORKLOADS}))")
        env = dict(os.environ, PYTHONHASHSEED="12345")
        out = subprocess.run([sys.executable, "-c", code], cwd=wl.BENCH_DIR, env=env,
                             capture_output=True, text=True, check=True).stdout
        self.assertEqual(json.loads(out), {w: wl.inputs_digest(w, 7) for w in wl.WORKLOADS})

    def test_seed_changes_the_seeded_inputs(self):
        for workload in ("h0-stream", "h0-wide", "cli-queries"):
            self.assertNotEqual(wl.inputs_digest(workload, 1), wl.inputs_digest(workload, 2), workload)

    def test_known_defects_stay_in_the_inputs(self):
        self.assertEqual(wl.wide_corpus()[0], ("GENERAL", wl.REPRODUCER_COEFFS))
        self.assertEqual(wl.load_package().parse_class_label(wl.REPRODUCER).coeffs, wl.REPRODUCER_COEFFS)
        names = [name for name, _args, expect in wl.cli_queries() if expect not in (wl.GOLDEN, wl.VALUE)]
        self.assertEqual(names, ["bad-zero-denominator", "bad-top-level-list", "bad-max-parts", "h0-reproducer"])


def replace_everywhere(original, replacement):
    """Rebind a function in every delpezzo module."""
    for name, module in list(sys.modules.items()):
        if name.startswith("delpezzo"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def broken(workload: wl.Workload, breaks) -> wl.Workload:
    """`workload` with breaks(api) applied to every package it imports afresh."""
    prepare = workload.prepare

    def prepare_then_break():
        prepare()
        breaks(workload.api)

    workload.prepare = prepare_then_break
    return workload


def h0_replaced(wrap):
    """breaks(api) that replaces h0_with_trace with wrap(original)."""
    def breaks(api):
        original = api.cohomology.h0_with_trace
        replace_everywhere(original, wrap(original))
    return breaks


def command_crashes(command: str):
    """breaks(api) that makes one CLI command raise."""
    def crash(_args):
        raise RuntimeError(f"{command} broken")

    def breaks(api):
        api.cli._COMMANDS[command] = crash
    return breaks


def one_pass(w: wl.Workload) -> wl.RunResult:
    """Pass 0 of `w`, checked, and the checks at the end of a run."""
    res = wl.RunResult()
    wl.check_pass(w, wl.run_pass(w, 0, res), res)
    w.finish(res)
    return res


class Checks(unittest.TestCase):
    def tearDown(self):
        wl.fresh_package()  # drop any broken package

    def test_correct_program_passes(self):
        res = wl.measure(wl.make("h0-stream", 1), 0.3)
        self.assertGreater(res.attempted, 0)
        self.assertEqual((res.failed, res.wrong), (0, 0))
        self.assertTrue(res.correct)

    def test_h0_plus_one_is_wrong(self):
        def plus_one(original):
            def h0_with_trace(d, cfg):
                trace = original(d, cfg)
                trace.value += 1
                return trace
            return h0_with_trace

        res = wl.measure(broken(wl.make("h0-stream", 1), h0_replaced(plus_one)), 0.3)
        self.assertGreater(res.failed / res.attempted, 0.5)
        self.assertFalse(res.correct)

    def test_h0_that_drops_h1_is_caught_at_any_seed(self):
        def chi_only(original):
            def h0_with_trace(d, cfg):
                trace = original(d, cfg)
                trace.value = max(0, wl.chi(d.coeffs))
                return trace
            return h0_with_trace

        res = one_pass(broken(wl.make("h0-stream", 11), h0_replaced(chi_only)))
        self.assertFalse(res.digest_ok)
        self.assertFalse(res.correct)

    def test_a_crash_in_h0_stream_is_wrong(self):
        def crash_on_p3(original):
            def h0_with_trace(d, cfg):
                if cfg.name == "P3":
                    raise RuntimeError("broken")
                return original(d, cfg)
            return h0_with_trace

        res = one_pass(broken(wl.make("h0-stream", 1), h0_replaced(crash_on_p3)))
        self.assertGreater(res.wrong, 0)
        self.assertFalse(res.correct)

    def test_only_the_recorded_h0_wide_crashes_are_known_defects(self):
        w = wl.make("h0-wide", 1)
        self.assertEqual(w.outcome(155, None), wl.FAILED)
        self.assertEqual(w.outcome(155, None), wl.FAILED)
        self.assertEqual(w.outcome(1, None), wl.WRONG)
        value = w.op(2)
        self.assertEqual(w.outcome(2, value), wl.OK)
        self.assertEqual(w.outcome(2, value + 1), wl.WRONG)

    def test_a_crashing_cli_command_is_wrong(self):
        res = one_pass(broken(wl.make("cli-queries", 1, in_process=True), command_crashes("orbits")))
        self.assertEqual((res.failed, res.wrong), (5, 1))
        self.assertFalse(res.correct)

    def test_a_crashing_verify_is_wrong(self):
        res = one_pass(broken(wl.make("golden-suite", 1), command_crashes("verify")))
        self.assertEqual(res.wrong, 1)
        self.assertFalse(res.correct)

    def test_each_pass_starts_from_a_fresh_import(self):
        w = wl.make("h0-wide", 1)
        w.api.symmetry.cached_by_a_later_change = object()
        wl.run_pass(w, 0, wl.RunResult())
        self.assertFalse(hasattr(w.api.symmetry, "cached_by_a_later_change"))

    def test_digest_detects_a_changed_answer(self):
        recorded = wl.load_expected("digests.json")["h0-stream"]
        answers = wl.stream_answers(wl.load_package())
        self.assertTrue(wl.digest_matches(answers, recorded))
        answers[5][0] += 1
        self.assertFalse(wl.digest_matches(answers, recorded))

    def test_digest_allows_a_recorded_failure_to_complete(self):
        recorded = {"failed": [1], **{k: v for k, v in wl.answer_digest([3, None, 4]).items() if k != "failed"}}
        self.assertTrue(wl.digest_matches([3, 7, 4], recorded))
        self.assertFalse(wl.digest_matches([3, 7, 5], recorded))

    def test_process_outcomes(self):
        golden = (wl.EXPECTED / "golden_suite.txt").read_text()
        self.assertEqual(wl.verify_outcome((0, golden, ""), golden), wl.OK)
        self.assertEqual(wl.verify_outcome((1, golden.replace("[PASS]", "[FAIL]", 1), ""), golden), wl.WRONG)
        self.assertEqual(wl.verify_outcome((1, "", "Traceback (most recent call last):"), golden), wl.WRONG)
        self.assertEqual(wl.verify_outcome((0, golden + "[PASS] a check added later\n", ""), golden), wl.OK)
        self.assertEqual(wl.verify_outcome((0, golden.split("\n", 1)[1], ""), golden), wl.WRONG)
        stored = wl.load_expected("cli_queries.json")
        orbits = stored["orbits"]
        self.assertEqual(wl.query_outcome(wl.GOLDEN, orbits, (0, orbits["stdout"], "")), wl.OK)
        self.assertEqual(wl.query_outcome(wl.GOLDEN, orbits, (0, "group_order: 121\n", "")), wl.WRONG)
        self.assertEqual(wl.query_outcome(wl.GOLDEN, orbits, (1, "", "Traceback")), wl.WRONG)
        h0 = stored["h0-P2"]
        self.assertEqual(wl.query_outcome(wl.VALUE, h0, (0, h0["stdout"].split("\n")[0] + "\n  new trace\n", "")), wl.OK)
        self.assertEqual(wl.query_outcome(wl.VALUE, h0, (0, "4\n" + h0["stdout"].split("\n", 1)[1], "")), wl.WRONG)
        bad = stored["bad-max-parts"]
        self.assertEqual(wl.query_outcome(wl.REJECT, bad, (2, "", "error: x")), wl.OK)
        self.assertEqual(wl.query_outcome(wl.REJECT, bad, (1, "", "Traceback")), wl.FAILED)
        self.assertEqual(wl.query_outcome(wl.REJECT, bad, (0, "", "")), wl.WRONG)
        reproducer = stored["h0-reproducer"]
        self.assertEqual(wl.query_outcome("0\n", reproducer, (1, "", "Traceback")), wl.FAILED)
        self.assertEqual(wl.query_outcome("0\n", reproducer, (0, "1\n", "")), wl.WRONG)


class Scaling(unittest.TestCase):
    def test_an_op_loses_its_inner_slices_and_is_scaled_by_the_slices_around(self):
        sampler = wl.Sampler("h0-wide", timer=True)
        sampler.slices = [(0.0, 0.1, 1.0), (1.0, 1.1, 0.5), (3.0, 3.1, 2.0)]  # (start, end, speed index)
        res = wl.RunResult()
        res.starts.extend([0.2, 0.5, 2.0])
        res.ends.extend([0.4, 1.5, 2.5])
        for got, want in zip(sampler.op_times(res, scaled=False), [0.2, 0.9, 0.5]):
            self.assertAlmostEqual(got, want)
        for got, want in zip(sampler.op_times(res, scaled=True), [0.2 * 0.75, 0.9 * 3.5 / 3, 0.5 * 1.25]):
            self.assertAlmostEqual(got, want)


class Trace(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        _res, first = run.traced("h0-stream", 3, 0)
        _res, second = run.traced("h0-stream", 3, 0)
        for name, value in first.items():
            if not run.is_time(name) and name != "trace.overhead_share":
                self.assertEqual(value, second[name], name)
        self.assertGreater(first["lattice.DivisorClass.count"], 0)
        self.assertGreater(first["cohomology.reduction_steps"], 0)

    def test_the_tracer_follows_each_fresh_import(self):
        res, layer = run.traced("cli-queries", 3, 0)
        self.assertTrue(res.correct)
        self.assertEqual((layer["cli.exit.0.count"], layer["cli.exit.1.count"]), (34, 4))
        self.assertGreater(layer["symmetry.LatticeAutomorphism.count"], 0)


class Manifest(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_run_py_prints(self):
        manifest = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(wl.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
