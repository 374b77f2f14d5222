"""Cross-validation of the two execution layers via ISA-level STREAM,
and of the ISA FFT against its host replica and numpy."""

import numpy as np
import pytest

from repro.core.chip import Chip
from repro.errors import WorkloadError
from repro.isa import Interpreter
from repro.isa.kernels import (
    fft_host_reference,
    fft_kernel_program,
    fft_register_setup,
    fft_result_base,
    fft_twiddles,
    stream_kernel_program,
    stream_register_setup,
)
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL
from repro.workloads.stream import StreamParams, run_stream

N = 256
SRC, SRC2, DST = 0x10000, 0x20000, 0x30000


def run_isa_stream(kernel: str, unroll: int = 1, tid: int = 0,
                   ig_byte=None):
    chip = Chip()
    backing = chip.memory.backing
    backing.f64_view(SRC, N)[:] = 1.0
    backing.f64_view(SRC2, N)[:] = 3.0
    program = stream_kernel_program(kernel, unroll)
    ig = IG_ALL if ig_byte is None else ig_byte
    init_regs, init_doubles = stream_register_setup(
        kernel, make_effective(SRC, ig), make_effective(SRC2, ig),
        make_effective(DST, ig), N)
    interp = Interpreter(chip, model_fetch=False)
    state = interp.add_thread(tid, program, init_regs, init_doubles)
    cycles = interp.run()
    return chip, state, cycles


class TestGeneratedKernels:
    @pytest.mark.parametrize("kernel,expected", [
        ("copy", 1.0),
        ("scale", 3.0),       # s * src where s=3, src=1
        ("add", 4.0),         # 1 + 3
        ("triad", 1.0 + 9.0),  # src + s*src2 = 1 + 3*3
    ])
    def test_functional_result(self, kernel, expected):
        chip, _, _ = run_isa_stream(kernel)
        out = chip.memory.backing.f64_view(DST, N)
        assert (out == expected).all()

    @pytest.mark.parametrize("unroll", [1, 2, 4])
    def test_unrolled_results_identical(self, unroll):
        chip, _, _ = run_isa_stream("triad", unroll)
        out = chip.memory.backing.f64_view(DST, N)
        assert (out == 10.0).all()

    def test_unrolling_reduces_cycles(self):
        _, _, plain = run_isa_stream("copy", 1)
        _, _, unrolled = run_isa_stream("copy", 4)
        assert unrolled < plain * 0.8

    def test_bad_kernel(self):
        with pytest.raises(WorkloadError):
            stream_kernel_program("sum")

    def test_bad_unroll(self):
        with pytest.raises(WorkloadError):
            stream_kernel_program("copy", unroll=9)


#: Every STREAM kernel at unroll 1 and 4; unroll-1 cases keep the bare
#: kernel name as their id.
STREAM_CASES = [
    pytest.param(kernel, unroll,
                 id=kernel if unroll == 1 else f"{kernel}-unroll{unroll}")
    for unroll in (1, 4) for kernel in ("copy", "scale", "add", "triad")]


class TestLayerCrossValidation:
    """The ISA interpreter and the direct-execution model must agree:
    both charge the same Table 2 machine for the same loop shape."""

    @pytest.mark.parametrize("kernel,unroll", STREAM_CASES)
    def test_cycles_per_element_agree(self, kernel, unroll):
        _, _, isa_cycles = run_isa_stream(kernel, unroll)
        direct = run_stream(StreamParams(
            kernel=kernel, n_elements=N, n_threads=1, unroll=unroll,
            warmup=False,
        ))
        # The ISA loop charges its literal instructions, a little more
        # overhead than the direct model's loop (1.1-3.1% at N=256).
        ratio = isa_cycles / direct.cycles
        assert 1.0 <= ratio < 1.05, (isa_cycles, direct.cycles)

    def test_unrolling_gain_agrees(self):
        """Both layers must show the same unrolling speedup."""
        _, _, isa_1 = run_isa_stream("triad", 1)
        _, _, isa_4 = run_isa_stream("triad", 4)
        isa_gain = isa_1 / isa_4

        direct_1 = run_stream(StreamParams(kernel="triad", n_elements=N,
                                           n_threads=1, warmup=False))
        direct_4 = run_stream(StreamParams(kernel="triad", n_elements=N,
                                           n_threads=1, unroll=4,
                                           warmup=False))
        direct_gain = direct_1.cycles / direct_4.cycles
        assert abs(isa_gain - direct_gain) / direct_gain < 0.05


class TestFFTKernel:
    """The ISA FFT the ``sampling`` experiment runs, checked against the
    host replica of its arithmetic and against numpy."""

    # The one-thread layout of repro.sampling.validate's fft workload.
    TWID, PING, PONG = 0x010000, 0x100000, 0x400000

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_result_matches_host_reference_and_numpy(self, n):
        m = n.bit_length() - 1
        re = [((i * 13 % 31) - 15) * 0.125 for i in range(n)]
        im = [((i * 7 % 17) - 8) * 0.25 for i in range(n)]
        chip = Chip()
        backing = chip.memory.backing
        backing.f64_view(self.TWID, n * m)[:] = [
            v for pair in fft_twiddles(n) for v in pair]
        buf = backing.f64_view(self.PING, 2 * n)
        buf[0::2] = re
        buf[1::2] = im
        interp = Interpreter(chip, model_fetch=False)
        interp.add_thread(0, fft_kernel_program(n), fft_register_setup(
            make_effective(self.PING, IG_ALL),
            make_effective(self.PONG, IG_ALL),
            make_effective(self.TWID, IG_ALL), n), {})
        interp.run()

        out = np.array(backing.f64_view(
            fft_result_base(self.PING, self.PONG, n), 2 * n))
        ref_re, ref_im = fft_host_reference(re, im, n)
        expected = np.empty(2 * n)
        expected[0::2] = ref_re
        expected[1::2] = ref_im
        assert out.tobytes() == expected.tobytes()

        bitrev = [int(format(k, f"0{m}b")[::-1], 2) for k in range(n)]
        spectrum = np.fft.fft(np.array(re) + 1j * np.array(im))[bitrev]
        assert np.max(np.abs(out[0::2] + 1j * out[1::2] - spectrum)) < 1e-12
