"""Tests for the coherence sanitizer (repro.sanitizer).

Each seeded-bug test plants exactly one coherence violation and asserts
the sanitizer reports exactly one finding, with provenance; the clean
tests assert the documented flush/invalidate discipline (and the
shipped drivers) produce no findings; the determinism test asserts
observation never perturbs simulated time.
"""

import json

import pytest

from repro.core.chip import Chip
from repro.errors import SanitizerError
from repro.isa.assembler import assemble
from repro.isa.interpreter import Interpreter
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL, IG_OWN, InterestGroup, Level
from repro.sanitizer import CoherenceSanitizer, env_enabled, session
from repro.sanitizer.report import render_report, session_report, write_json

EA_OWN = make_effective(0x1000, IG_OWN)


@pytest.fixture(autouse=True)
def clean_session():
    """Isolate the process-wide sanitizer session per test."""
    session.reset()
    session.force(False)
    yield
    session.reset()
    session.force(False)


def attached_chip():
    chip = Chip()
    return chip, CoherenceSanitizer().attach(chip)


class TestSeededBugs:
    def test_stale_read_missing_invalidate(self):
        """Writer updates its OWN copy; the reader's replica goes stale."""
        chip, san = attached_chip()
        writer = san.thread_view(chip.memory, tid=0)    # quad 0
        reader = san.thread_view(chip.memory, tid=36)   # quad 9
        writer.load_f64(0, 0, EA_OWN)
        reader.load_f64(10, 9, EA_OWN)
        writer.store_f64(20, 0, EA_OWN, 1.0)
        reader.load_f64(30, 9, EA_OWN)
        assert [f.kind for f in san.findings] == ["stale-read"]
        finding = san.findings[0]
        assert finding.tid == 36 and finding.cache_id == 9
        assert finding.time == 30 and finding.pc is None
        assert finding.writer == {"tid": 0, "pc": None, "time": 20,
                                  "cache": 0, "epoch": 0}
        assert "missing dcbf/dcbi pair" in finding.message

    def test_stale_read_missing_flush(self):
        """Writer never flushes: a miss fill fetches the old image."""
        chip, san = attached_chip()
        writer = san.thread_view(chip.memory, tid=0)
        reader = san.thread_view(chip.memory, tid=4)    # quad 1
        writer.store_f64(10, 0, EA_OWN, 1.0)
        reader.load_f64(20, 1, EA_OWN)
        assert [f.kind for f in san.findings] == ["stale-read"]
        assert "never flushed" in san.findings[0].message

    def test_write_write_conflict(self):
        """Two quads dirty one line in the same barrier epoch."""
        chip, san = attached_chip()
        a = san.thread_view(chip.memory, tid=0)
        b = san.thread_view(chip.memory, tid=4)
        a.store_f64(10, 0, EA_OWN, 1.0)
        b.store_f64(20, 1, EA_OWN, 2.0)
        kinds = [f.kind for f in san.findings]
        assert kinds == ["write-write-conflict"]
        assert san.findings[0].writer["tid"] == 0

    def test_barrier_clears_write_write_conflict(self):
        """A barrier between the writes makes their order well-defined
        (the data still needs its flush to be *seen* — writer b misses
        and the sanitizer reports that separately as a stale fill)."""
        chip, san = attached_chip()
        a = san.thread_view(chip.memory, tid=0)
        b = san.thread_view(chip.memory, tid=4)
        a.store_f64(10, 0, EA_OWN, 1.0)
        san.on_barrier_release([0, 4])
        b.store_f64(20, 1, EA_OWN, 2.0)
        assert "write-write-conflict" not in [f.kind for f in san.findings]

    def test_atomics_exempt_from_conflict_check(self):
        chip, san = attached_chip()
        ea = make_effective(0x2000, IG_ALL)
        a = san.thread_view(chip.memory, tid=0)
        b = san.thread_view(chip.memory, tid=4)
        a.atomic_rmw_u32(10, 0, ea, "add", 1)
        b.atomic_rmw_u32(20, 1, ea, "add", 1)
        assert san.findings == []

    def test_interest_group_misroute(self):
        """Two group bytes that home one physical line differently."""
        chip, san = attached_chip()
        view = san.thread_view(chip.memory, tid=0)
        home = chip.memory.target_cache(IG_ALL, 0x1000, 0)
        other = next(
            byte
            for level in (Level.ONE, Level.PAIR, Level.FOUR)
            for idx in range(32 >> (level.value - 1))
            for byte in [InterestGroup(level,
                                       idx << (level.value - 1)).encode()]
            if chip.memory.target_cache(byte, 0x1000, 0) != home
        )
        view.load_f64(0, 0, make_effective(0x1000, IG_ALL))
        view.load_f64(10, 0, make_effective(0x1000, other))
        assert [f.kind for f in san.findings] == ["ig-misroute"]
        assert "two homes" in san.findings[0].message

    def test_barrier_misuse(self):
        """Arrive without participate trips the SPR-file check."""
        chip, san = attached_chip()
        chip.barrier_spr.participate(0, 0)
        chip.barrier_spr.arrive(0, 0)      # correct pairing: clean
        chip.barrier_spr.arrive(5, 0)      # never participated
        assert [f.kind for f in san.findings] == ["barrier-misuse"]
        assert san.findings[0].tid == 5
        assert "participate" in san.findings[0].message

    def test_isa_thread_findings_carry_pc(self):
        """ISA-interpreter threads report the faulting instruction, also
        when the stale load sits in the middle of a fused block."""
        for source, pc in (("lw r3, 0(r4)\nhalt", 0x0),
                           ("addi r5, r0, 1\naddi r6, r0, 2\n"
                            "lw r3, 0(r4)\nhalt", 0x8)):
            chip = Chip(sanitize=True)
            writer = chip.sanitizer.thread_view(chip.memory, tid=4)
            writer.store_u32(0, 1, EA_OWN, 7)  # dirty in quad 1, unflushed
            interp = Interpreter(chip, model_fetch=False)
            interp.add_thread(0, assemble(source), init_regs={4: 0x1000})
            interp.run()
            stale = [f for f in chip.sanitizer.findings
                     if f.kind == "stale-read"]
            assert len(stale) == 1
            assert stale[0].pc == pc and stale[0].tid == 0
            assert interp._dispatches == 1


class TestCleanRuns:
    def test_flush_invalidate_discipline_is_clean(self):
        """The documented dcbf/dcbi pairing produces no findings."""
        chip, san = attached_chip()
        writer = san.thread_view(chip.memory, tid=0)
        reader = san.thread_view(chip.memory, tid=36)
        writer.load_f64(0, 0, EA_OWN)
        reader.load_f64(10, 9, EA_OWN)
        writer.store_f64(20, 0, EA_OWN, 1.0)
        writer.flush_line(30, 0, EA_OWN)         # dcbf: write back + drop
        san.on_barrier_release([0, 36])
        reader.invalidate_line(40, 9, EA_OWN)    # dcbi: drop stale copy
        reader.load_f64(50, 9, EA_OWN)           # fresh fill
        assert san.findings == []

    def test_shipped_workloads_clean_and_deterministic(self):
        """FFT (barriers) and STREAM run clean under the sanitizer, at
        byte-identical cycle counts — observation never perturbs time."""
        from repro.workloads.fft import FFTParams, run_fft
        from repro.workloads.stream import StreamParams, run_stream

        fft_params = FFTParams(n_points=64, n_threads=4)
        stream_params = StreamParams(kernel="triad", n_elements=512,
                                     n_threads=4)
        plain_fft = run_fft(fft_params).total_cycles
        plain_stream = run_stream(stream_params).cycles

        session.force(True)
        try:
            sanitized_fft = run_fft(fft_params)
            sanitized_stream = run_stream(stream_params)
        finally:
            session.force(False)
        assert sanitized_fft.total_cycles == plain_fft
        assert sanitized_stream.cycles == plain_stream
        assert session.all_findings() == []
        # The FFT's barriers really were observed.
        assert any(s.global_epoch > 0 for s in session.active())

    def test_quick_experiment_clean(self):
        from repro.experiments.runner import main as experiments_main

        assert experiments_main(
            ["run", "table1", "--quick", "--sanitize"]) == 0


class TestEnablement:
    def test_env_variable_attaches_sanitizer(self, monkeypatch):
        assert Chip().sanitizer is None
        monkeypatch.setenv(session.ENV_VAR, "1")
        assert env_enabled()
        assert Chip().sanitizer is not None
        monkeypatch.setenv(session.ENV_VAR, "off")
        assert Chip().sanitizer is None

    def test_double_attach_rejected(self):
        chip, san = attached_chip()
        with pytest.raises(SanitizerError):
            san.attach(chip)
        with pytest.raises(SanitizerError):
            CoherenceSanitizer().attach(chip)

    def test_workload_cli_sanitize_flag(self, tmp_path, capsys):
        from repro.workloads.runner import main as workloads_main

        report_path = tmp_path / "findings.json"
        assert workloads_main(
            ["stream", "--threads", "4", "--elements", "512",
             "--sanitize", "--sanitize-report", str(report_path)]) == 0
        assert "coherence sanitizer" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["chips_sanitized"] == 1
        assert report["total_findings"] == 0

    def test_experiments_cli_rejects_sanitize_with_jobs(self, capsys):
        from repro.experiments.runner import main as experiments_main

        assert experiments_main(
            ["run", "table1", "--quick", "--sanitize", "-j", "2"]) == 2
        assert "--sanitize requires serial" in capsys.readouterr().err
        assert experiments_main(
            ["run", "table1", "--quick", "--sanitize-report", "r.json"]) == 2
        assert "--sanitize-report requires --sanitize" in \
            capsys.readouterr().err


class TestReporting:
    def test_findings_count_toward_telemetry(self):
        from repro.telemetry.instrument import instrument

        chip = Chip()
        instrument(chip)
        san = CoherenceSanitizer().attach(chip)
        writer = san.thread_view(chip.memory, tid=0)
        reader = san.thread_view(chip.memory, tid=4)
        writer.store_f64(10, 0, EA_OWN, 1.0)
        reader.load_f64(20, 1, EA_OWN)
        snap = chip.telemetry.registry.snapshot()
        assert snap["counters"]['sanitizer.findings{kind="stale-read"}'] == 1

    def test_dedup_keeps_counting_occurrences(self):
        chip, san = attached_chip()
        writer = san.thread_view(chip.memory, tid=0)
        reader = san.thread_view(chip.memory, tid=36)
        writer.store_f64(0, 0, EA_OWN, 1.0)
        reader.load_f64(10, 9, EA_OWN)
        reader.load_f64(20, 9, EA_OWN)   # same stale copy, same version
        assert len(san.findings) == 1
        assert san.counts["stale-read"] == 2
        assert san.occurrences == 2

    def test_session_report_round_trips(self, tmp_path):
        chip, san = attached_chip()
        writer = san.thread_view(chip.memory, tid=0)
        reader = san.thread_view(chip.memory, tid=4)
        writer.store_f64(10, 0, EA_OWN, 1.0)
        reader.load_f64(20, 1, EA_OWN)
        report = session_report()
        assert report["total_findings"] == 1
        assert report["counts"]["stale-read"] == 1
        rendered = render_report(report)
        assert "1 finding(s)" in rendered and "[stale-read]" in rendered
        path = write_json(tmp_path / "r.json", report)
        assert json.loads(path.read_text()) == report

    def test_clear_resets_state_but_not_wiring(self):
        chip, san = attached_chip()
        view = san.thread_view(chip.memory, tid=0)
        view.store_f64(10, 0, EA_OWN, 1.0)
        san.on_barrier_release([0])
        san.clear()
        assert san.findings == [] and san.global_epoch == 0
        assert chip.memory.sanitizer is san
