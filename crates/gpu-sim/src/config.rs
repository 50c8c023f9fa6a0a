//! GPU configuration presets.
//!
//! The default configuration reproduces the NVIDIA Quadro 6000 (GF100) from
//! Table I of the paper, with the memory-system parameters of Tables II-IV
//! either taken directly (pipeline depth, shared-memory latency) or chosen so
//! that the microbenchmarks in `regla-microbench` reproduce the paper's
//! measured values (DRAM stream efficiency, synchronization cost curve).

/// Precision mode for reciprocal / square-root operations.
///
/// `Fast` models the GF100 SFU paths enabled by `--use_fast_math`: low
/// latency, results accurate to 22 mantissa bits (emulated by truncating the
/// low mantissa bits of the IEEE result). `Precise` models the full-precision
/// software sequences nvcc emits otherwise: correctly rounded results at a
/// much higher cycle cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum MathMode {
    #[default]
    Fast,
    Precise,
}

/// Static description of a simulated GPU.
///
/// All latencies and issue intervals are expressed in *hot-clock* cycles
/// (`core_clock_ghz`), matching how the paper reports cycle counts via the
/// CUDA `clock()` function.
#[derive(Clone, Debug)]
pub struct GpuConfig {
    pub name: &'static str,
    /// Number of streaming multiprocessors (SIMT units). GF100: 14.
    pub num_sms: usize,
    /// Single-precision FPUs per SM. GF100: 32.
    pub fpus_per_sm: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// Hot clock in GHz (FPU clock). Quadro 6000: 1.15.
    pub core_clock_ghz: f64,

    // ---- occupancy limits (CUDA compute capability 2.0) ----
    /// Architectural limit on registers per thread; accesses beyond this
    /// spill to L1 and then DRAM. GF100: 64 (the paper's number).
    pub max_regs_per_thread: usize,
    /// Register file capacity per SM in 32-bit words. GF100: 32768 (128 kB).
    pub regfile_words_per_sm: usize,
    /// Register allocation granularity in words (per-warp rounding).
    pub reg_alloc_granularity: usize,
    /// Usable shared memory per SM in bytes (48 kB of the 64 kB array).
    pub shared_bytes_per_sm: usize,
    /// L1 cache per SM in bytes (the other 16 kB); receives register spills.
    pub l1_bytes_per_sm: usize,
    /// L1 size when the kernel requests the prefer-L1 split (48 kB on
    /// GF100); used by spilling kernels with small shared footprints.
    pub prefer_l1_bytes_per_sm: usize,
    pub max_blocks_per_sm: usize,
    pub max_threads_per_sm: usize,
    pub max_threads_per_block: usize,

    // ---- pipeline ----
    /// FP pipeline depth: the paper's gamma = 18 cycles.
    pub alu_latency: u64,
    /// Shared-memory load-to-use latency: the paper's alpha_sh = 27 cycles.
    pub shared_latency: u64,
    /// L1 hit latency (register spills, local memory).
    pub l1_latency: u64,
    /// Penalty for touching shared memory through a generic (LD, not LDS)
    /// instruction on the unified address space; measured as ~14 cycles.
    pub unified_addr_penalty: u64,
    /// Issue interval of one warp FP instruction (32 FPUs -> 1 cycle).
    pub fp_issue_interval: u64,
    /// Issue interval of one warp LD/ST instruction (half-clock units -> 2).
    pub ldst_issue_interval: u64,
    /// Sustained-throughput derating of the LD/ST pipeline (arbitration
    /// and fetch bubbles): the paper measures 85.4% of theoretical shared
    /// bandwidth, i.e. a factor of ~1.17 on the issue interval.
    pub ldst_sustained_factor: f64,
    /// Issue interval of one warp SFU instruction (4 SFUs -> 8 cycles).
    pub sfu_issue_interval: u64,
    /// Whether an FP and a LD/ST instruction can be co-issued (two
    /// schedulers per GF100 SM).
    pub dual_issue: bool,

    // ---- special functions ----
    /// Latency of hardware reciprocal (fast math).
    pub fast_recip_latency: u64,
    /// Latency of hardware reciprocal square root / square root (fast math).
    pub fast_sqrt_latency: u64,
    /// Latency of the correctly-rounded software division sequence.
    pub precise_div_latency: u64,
    /// Latency of the correctly-rounded software square root sequence.
    pub precise_sqrt_latency: u64,
    /// Extra FP issue slots consumed by the precise sequences.
    pub precise_extra_issue: u64,

    // ---- synchronization ----
    /// `__syncthreads()` cost: `sync_base + sync_per_warp * warps` cycles.
    /// Fitted to Figure 2: 46 cycles at 64 threads, ~190 at 1024.
    pub sync_base: f64,
    pub sync_per_warp: f64,

    // ---- shared memory array ----
    pub shared_banks: usize,

    // ---- global memory ----
    /// Peak DRAM bandwidth in GB/s. Quadro 6000: 144 (384-bit * 3 GHz).
    pub dram_peak_gbs: f64,
    /// Fraction of peak achievable by a well-coalesced streaming kernel
    /// (command overhead, refresh, read/write turnaround). The paper
    /// measures 108/144 = 75%.
    pub dram_stream_efficiency: f64,
    /// Fraction of peak achieved by the driver's `cudaMemcpy` on-device
    /// copy path (chunking overhead). The paper measures 84/144 = 58.3%.
    pub memcpy_efficiency: f64,
    /// Memory transaction size in bytes (L2 line).
    pub dram_line_bytes: usize,
    pub l2_bytes: usize,
    pub l2_ways: usize,
    /// L2 hit latency for a dependent (pointer-chasing) load.
    pub l2_hit_latency: u64,
    /// DRAM latency with an open row (dependent load).
    pub dram_row_hit_latency: u64,
    /// DRAM latency with a row miss: the paper's alpha_glb = 570 cycles.
    pub dram_row_miss_latency: u64,
    /// DRAM row-buffer locality window in bytes.
    pub dram_row_bytes: usize,
    /// Extra cycles when the address walk misses the TLB.
    pub tlb_miss_penalty: u64,
    /// TLB reach: entries * page size.
    pub tlb_entries: usize,
    pub tlb_page_bytes: usize,

    // ---- PCIe (host link) ----
    pub pcie_gbs: f64,
    pub pcie_latency_us: f64,

    // ---- driver ----
    /// Fixed kernel-launch overhead in microseconds (driver + dispatch).
    /// This is what makes fine-grained CUBLAS-style approaches to small
    /// problems uncompetitive (Section VI-C).
    pub launch_overhead_us: f64,
    /// Kernels from different streams that the hardware can actually run
    /// concurrently for this launch pattern. GF100 nominally supports 16
    /// concurrent kernels, but small back-to-back launches serialize in
    /// the driver — the paper's "no benefit from using multiple streams".
    pub concurrent_kernels: usize,
    /// DMA copy engines available to asynchronous transfers. The paper's
    /// GF100 board exposes a single engine *and* serializes it against the
    /// compute queue in the driver, which is why the paper measures "no
    /// benefit from using multiple streams"; the stream timeline scheduler
    /// (see [`crate::stream`]) reproduces that: with fewer than two engines
    /// every command serializes in issue order. Tesla-class Fermi boards
    /// (and everything since) expose two engines — one per direction — and
    /// get the classic 3-stage copy/compute pipeline.
    pub copy_engines: usize,
}

impl GpuConfig {
    /// The NVIDIA Quadro 6000 (GF100) used throughout the paper (Table I).
    pub fn quadro_6000() -> Self {
        GpuConfig {
            name: "NVIDIA Quadro 6000 (GF100, simulated)",
            num_sms: 14,
            fpus_per_sm: 32,
            warp_size: 32,
            core_clock_ghz: 1.15,
            max_regs_per_thread: 64,
            regfile_words_per_sm: 32768,
            reg_alloc_granularity: 64,
            shared_bytes_per_sm: 48 * 1024,
            l1_bytes_per_sm: 16 * 1024,
            prefer_l1_bytes_per_sm: 48 * 1024,
            max_blocks_per_sm: 8,
            max_threads_per_sm: 1536,
            max_threads_per_block: 1024,
            alu_latency: 18,
            shared_latency: 27,
            l1_latency: 40,
            unified_addr_penalty: 14,
            fp_issue_interval: 1,
            ldst_issue_interval: 2,
            ldst_sustained_factor: 1.171,
            sfu_issue_interval: 8,
            dual_issue: true,
            fast_recip_latency: 28,
            fast_sqrt_latency: 32,
            precise_div_latency: 260,
            precise_sqrt_latency: 330,
            precise_extra_issue: 12,
            sync_base: 36.4,
            sync_per_warp: 4.8,
            shared_banks: 32,
            dram_peak_gbs: 144.0,
            dram_stream_efficiency: 0.75,
            memcpy_efficiency: 0.583,
            dram_line_bytes: 128,
            l2_bytes: 768 * 1024,
            l2_ways: 16,
            l2_hit_latency: 282,
            dram_row_hit_latency: 470,
            dram_row_miss_latency: 570,
            dram_row_bytes: 4096,
            tlb_miss_penalty: 58,
            tlb_entries: 64,
            tlb_page_bytes: 128 * 1024,
            pcie_gbs: 6.0,
            pcie_latency_us: 15.0,
            launch_overhead_us: 4.0,
            concurrent_kernels: 1,
            copy_engines: 1,
        }
    }

    /// The Quadro 6000 with the dual copy engines of the Tesla-class Fermi
    /// boards (C2050/C2070). Compute parameters are identical; only the
    /// host-link topology changes, so comparing this preset against
    /// [`GpuConfig::quadro_6000`] isolates exactly the copy/compute-overlap
    /// effect the stream scheduler models.
    pub fn quadro_6000_dual_copy() -> Self {
        GpuConfig {
            name: "NVIDIA Quadro 6000 (dual copy engines, simulated)",
            copy_engines: 2,
            ..Self::quadro_6000()
        }
    }

    /// A G80-generation part (GeForce 8800 class), used only to cross-check
    /// the latency microbenchmark against Volkov's published 36-cycle
    /// shared-memory figure.
    pub fn g80() -> Self {
        GpuConfig {
            name: "NVIDIA G80 (simulated)",
            num_sms: 16,
            fpus_per_sm: 8,
            warp_size: 32,
            core_clock_ghz: 1.35,
            max_regs_per_thread: 128,
            regfile_words_per_sm: 8192,
            reg_alloc_granularity: 256,
            shared_bytes_per_sm: 16 * 1024,
            l1_bytes_per_sm: 0,
            prefer_l1_bytes_per_sm: 0,
            max_blocks_per_sm: 8,
            max_threads_per_sm: 768,
            max_threads_per_block: 512,
            alu_latency: 24,
            shared_latency: 36,
            l1_latency: 36,
            unified_addr_penalty: 0,
            fp_issue_interval: 4,
            ldst_issue_interval: 4,
            ldst_sustained_factor: 1.2,
            sfu_issue_interval: 16,
            dual_issue: false,
            fast_recip_latency: 28,
            fast_sqrt_latency: 36,
            precise_div_latency: 280,
            precise_sqrt_latency: 360,
            precise_extra_issue: 16,
            sync_base: 28.0,
            sync_per_warp: 4.0,
            shared_banks: 16,
            dram_peak_gbs: 86.4,
            dram_stream_efficiency: 0.78,
            memcpy_efficiency: 0.6,
            dram_line_bytes: 64,
            l2_bytes: 0,
            l2_ways: 1,
            l2_hit_latency: 350,
            dram_row_hit_latency: 420,
            dram_row_miss_latency: 510,
            dram_row_bytes: 2048,
            tlb_miss_penalty: 80,
            tlb_entries: 16,
            tlb_page_bytes: 64 * 1024,
            pcie_gbs: 3.0,
            pcie_latency_us: 15.0,
            launch_overhead_us: 8.0,
            concurrent_kernels: 1,
            copy_engines: 1,
        }
    }

    /// A GT200-generation part (GTX 280 class): the chip Wong et al.
    /// microbenchmarked, from which the paper takes its division and
    /// square-root cycle times. Useful for cross-generation studies.
    pub fn gt200() -> Self {
        GpuConfig {
            name: "NVIDIA GT200 (simulated)",
            num_sms: 30,
            fpus_per_sm: 8,
            warp_size: 32,
            core_clock_ghz: 1.296,
            max_regs_per_thread: 124,
            regfile_words_per_sm: 16384,
            reg_alloc_granularity: 512,
            shared_bytes_per_sm: 16 * 1024,
            l1_bytes_per_sm: 0,
            prefer_l1_bytes_per_sm: 0,
            max_blocks_per_sm: 8,
            max_threads_per_sm: 1024,
            max_threads_per_block: 512,
            alu_latency: 24,
            shared_latency: 38,
            l1_latency: 38,
            unified_addr_penalty: 0,
            fp_issue_interval: 4,
            ldst_issue_interval: 4,
            ldst_sustained_factor: 1.15,
            sfu_issue_interval: 16,
            dual_issue: true,
            fast_recip_latency: 28,
            fast_sqrt_latency: 32,
            precise_div_latency: 280,
            precise_sqrt_latency: 360,
            precise_extra_issue: 16,
            sync_base: 30.0,
            sync_per_warp: 4.0,
            shared_banks: 16,
            dram_peak_gbs: 141.7,
            dram_stream_efficiency: 0.77,
            memcpy_efficiency: 0.6,
            dram_line_bytes: 64,
            l2_bytes: 0,
            l2_ways: 1,
            l2_hit_latency: 340,
            dram_row_hit_latency: 440,
            dram_row_miss_latency: 540,
            dram_row_bytes: 2048,
            tlb_miss_penalty: 70,
            tlb_entries: 32,
            tlb_page_bytes: 64 * 1024,
            pcie_gbs: 5.0,
            pcie_latency_us: 15.0,
            launch_overhead_us: 6.0,
            concurrent_kernels: 1,
            copy_engines: 1,
        }
    }

    /// Synchronization barrier cost in cycles for a block of `threads`.
    pub fn sync_cycles(&self, threads: usize) -> u64 {
        let warps = threads.div_ceil(self.warp_size);
        (self.sync_base + self.sync_per_warp * warps as f64).round() as u64
    }

    /// Peak single-precision throughput in GFLOP/s (FMA counted as 2).
    pub fn peak_sp_gflops(&self) -> f64 {
        (self.num_sms * self.fpus_per_sm) as f64 * self.core_clock_ghz * 2.0
    }

    /// Theoretical peak shared-memory bandwidth of the whole chip in GB/s:
    /// each SM moves one 4-byte word per bank per two hot cycles.
    pub fn peak_shared_gbs(&self) -> f64 {
        self.num_sms as f64 * self.shared_banks as f64 * 4.0 * self.core_clock_ghz
            / self.ldst_issue_interval as f64
    }

    /// Convert a duration in hot-clock cycles to seconds.
    pub fn cycles_to_secs(&self, cycles: f64) -> f64 {
        cycles / (self.core_clock_ghz * 1e9)
    }

    /// Convert seconds to hot-clock cycles.
    pub fn secs_to_cycles(&self, secs: f64) -> f64 {
        secs * self.core_clock_ghz * 1e9
    }

    /// DRAM bandwidth achievable by a streaming kernel, in bytes per cycle.
    pub fn dram_stream_bytes_per_cycle(&self) -> f64 {
        self.dram_peak_gbs * self.dram_stream_efficiency / self.core_clock_ghz
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::quadro_6000()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadro_peak_flops_matches_table_one() {
        let cfg = GpuConfig::quadro_6000();
        // Table I: 1.03 TFlop/s peak single precision.
        assert!((cfg.peak_sp_gflops() - 1030.4).abs() < 1.0);
    }

    #[test]
    fn quadro_peak_shared_bandwidth_matches_paper() {
        let cfg = GpuConfig::quadro_6000();
        // Section II-B1: theoretical peak 1030 GB/s from all shared memories.
        assert!((cfg.peak_shared_gbs() - 1030.4).abs() < 1.0);
    }

    #[test]
    fn sync_cost_matches_table_four() {
        let cfg = GpuConfig::quadro_6000();
        // Table IV: synchronization of 64 threads costs 46 cycles.
        assert_eq!(cfg.sync_cycles(64), 46);
    }

    #[test]
    fn sync_cost_grows_with_threads() {
        let cfg = GpuConfig::quadro_6000();
        let mut last = 0;
        for t in [32, 64, 128, 256, 512, 1024] {
            let c = cfg.sync_cycles(t);
            assert!(c > last, "sync cost must grow with thread count");
            last = c;
        }
        // Figure 2 tops out near ~190 cycles at 1024 threads.
        assert!((170..=210).contains(&cfg.sync_cycles(1024)));
    }

    #[test]
    fn cycle_time_round_trip() {
        let cfg = GpuConfig::quadro_6000();
        let s = cfg.cycles_to_secs(1.15e9);
        assert!((s - 1.0).abs() < 1e-12);
        assert!((cfg.secs_to_cycles(s) - 1.15e9).abs() < 1.0);
    }

    #[test]
    fn stream_bandwidth_is_108_gbs() {
        let cfg = GpuConfig::quadro_6000();
        let gbs = cfg.dram_stream_bytes_per_cycle() * cfg.core_clock_ghz;
        assert!((gbs - 108.0).abs() < 0.1);
    }
}
