//! Device element abstraction: one kernel source for real and complex,
//! tracked and plain.
//!
//! The paper's CUDA kernels are templated over the scalar type; here the
//! same role is played by [`Elem`], the value domain every register kernel
//! is written against. It has four implementations:
//!
//! * tracked real ([`Rv`]) and complex ([`CRv`]) register values: every
//!   operation goes through the simulator's scoreboard, every register
//!   access through spill and fault accounting, so complex kernels
//!   automatically cost ~4x the FLOPs and 2x the memory traffic of their
//!   real counterparts;
//! * plain `f32` and [`CVal`]: the same operations on bare values, through
//!   the raw shared/global primitives of a fast (observer-free replay)
//!   block;
//! * [`Lanes`] of `f32` or [`CVal`], `W` wide: one plain value for each of
//!   the W blocks of a lane group (W = 2, 4, 8, 16 or 64), each lane
//!   computing its own problem's operations in the same order.
//!
//! Each plain operation performs its tracked twin's `f32` operations in the
//! same order — Rust never contracts float expressions — so a kernel body
//! produces bit-identical values in every domain. [`run_in_domain`] picks
//! the domain, and a group's width, once per block or lane group.
//!
//! Kernels address global memory through per-block [`Slab`]s and take
//! every branch on data through `is_zero`/`gt` (or the block id through
//! `BlockCtx::uniform`), which is what lets one body run over a lane
//! group: lanes that disagree on a branch abandon the group. Every domain
//! reaches those branches through the `ThreadCtx`, which records their
//! outcomes while the simulator keys its schedule cache on block 0 — one
//! outcome per branch in a lane group too (`ThreadCtx::v_uniform`), so
//! block 0 records the same key as lane 0 of a group as it does alone.

use crate::scalar::{Scalar, C32};
use regla_gpu_sim::{BlockCtx, CRv, DPtr, Rv, ThreadCtx};

/// A per-block slab of device memory, in element units: block `b` reaches
/// element `off` of its slab at element `b * stride + off` past `ptr`.
/// Kernels name global memory this way instead of multiplying the block
/// id, so one access reaches every lane's own problem in a lane group.
#[derive(Clone, Copy, Debug)]
pub struct Slab {
    pub ptr: DPtr,
    /// Elements between consecutive blocks' slabs (0: launch-wide data
    /// every block addresses absolutely).
    pub stride: usize,
}

impl Slab {
    pub fn new(ptr: DPtr, stride: usize) -> Self {
        Slab { ptr, stride }
    }

    /// Element index of `off` in the executing block's slab.
    #[inline]
    fn index(self, t: &ThreadCtx, off: usize) -> usize {
        t.block_id * self.stride + off
    }
}

/// A value that lives in device registers and can flow through the
/// simulated shared/global memories.
pub trait Elem: Copy + Send + Sync + 'static {
    /// The host scalar this element marshals to/from.
    type Host: Scalar;
    /// The real values of this domain (norms, pivots, flags).
    type Re: Real;
    /// The same element as one plain value (`Self` for plain elements,
    /// one lane's element for lane values); [`Lanes`] of it run a group.
    type Plain: LaneElem<Host = Self::Host>;
    /// 32-bit words per element.
    const WORDS: usize;

    /// Immediate (compile-time constant).
    fn imm(re: f32) -> Self;
    /// Promote a real value (imaginary part zero).
    fn from_re(r: Self::Re) -> Self;
    /// The real component (free: register renaming).
    fn re(self) -> Self::Re;

    /// Load element `off` of the executing block's slab from global memory.
    fn gload(t: &mut ThreadCtx, s: Slab, off: usize) -> Self;
    fn gstore(t: &mut ThreadCtx, s: Slab, off: usize, v: Self);
    /// Load `regs.len()` consecutive elements starting at slab element
    /// `off` into registers. Tracked: one [`Elem::gload`] and one register
    /// write per element, in order; plain: one fused span transfer.
    fn gload_span(t: &mut ThreadCtx, s: Slab, off: usize, regs: &mut [Self]) {
        for k in 0..regs.len() {
            let v = Self::gload(t, s, off + k);
            Self::reg_set(t, regs, k, v);
        }
    }
    /// Store registers `regs` to consecutive slab elements starting at
    /// `off` (the mirror of [`Elem::gload_span`]).
    fn gstore_span(t: &mut ThreadCtx, s: Slab, off: usize, regs: &[Self]) {
        for k in 0..regs.len() {
            let v = Self::reg_get(t, regs, k);
            Self::gstore(t, s, off + k, v);
        }
    }
    /// Load element `idx` (element units) from block shared memory.
    fn sload(t: &mut ThreadCtx, idx: usize) -> Self;
    fn sstore(t: &mut ThreadCtx, idx: usize, v: Self);
    /// Read register `i` of a register array (tracked: spill accounting).
    fn reg_get(t: &mut ThreadCtx, regs: &[Self], i: usize) -> Self;
    /// Write register `i` (tracked: spill accounting and fault hook).
    fn reg_set(t: &mut ThreadCtx, regs: &mut [Self], i: usize, v: Self);

    fn add(t: &mut ThreadCtx, a: Self, b: Self) -> Self;
    fn sub(t: &mut ThreadCtx, a: Self, b: Self) -> Self;
    fn mul(t: &mut ThreadCtx, a: Self, b: Self) -> Self;
    /// `acc + a*b`.
    fn fma(t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self;
    /// `acc - a*b`.
    fn fnma(t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self;
    /// `acc + conj(a)*b` (plain fma for real elements).
    fn conj_fma(t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self;
    fn conj(t: &mut ThreadCtx, a: Self) -> Self;
    /// Multiply by a real value.
    fn scale_re(t: &mut ThreadCtx, a: Self, s: Self::Re) -> Self;
    /// Squared magnitude as a real value.
    fn abs2(t: &mut ThreadCtx, a: Self) -> Self::Re;
    /// Multiplicative inverse (math-mode dependent).
    fn recip(t: &mut ThreadCtx, a: Self) -> Self;
    fn is_zero(t: &mut ThreadCtx, a: Self) -> bool;
}

/// The real values of a domain: [`Rv`] when tracked, `f32` when plain.
pub trait Real: Elem<Re = Self, Host = f32> {
    /// Square root (math-mode dependent).
    fn sqrt(t: &mut ThreadCtx, a: Self) -> Self;
    /// Negation (a free source modifier).
    fn neg(t: &mut ThreadCtx, a: Self) -> Self;
    /// `a > b` (false when either is NaN).
    fn gt(t: &mut ThreadCtx, a: Self, b: Self) -> bool;
    /// `-v` when `a > b`, else `v`: a sign choice that never branches
    /// across lanes and records no branch outcome. Tracked, it costs
    /// exactly [`Real::gt`]'s comparison (the negation is a free source
    /// modifier).
    fn neg_if_gt(t: &mut ThreadCtx, v: Self, a: Self, b: Self) -> Self;
}

/// A kernel written once over the value domain.
pub trait DomainKernel {
    /// The tracked element the kernel was instantiated with.
    type Elem: Elem;
    /// The kernel body, in domain `D`.
    fn body<D: Elem>(&self, blk: &mut BlockCtx);
}

/// The plain element of `K`'s domain.
type PlainOf<K> = <<K as DomainKernel>::Elem as Elem>::Plain;

/// Run `k`'s body in the domain this block executes in: lanes as wide as
/// the lane group, plain values on a fast block, tracked registers
/// otherwise. Every register kernel's `BlockKernel::run` is this one call,
/// and every such kernel is `BlockKernel::lane_capable`.
pub fn run_in_domain<K: DomainKernel>(k: &K, blk: &mut BlockCtx) {
    match blk.lane_width() {
        1 if blk.fast() => k.body::<PlainOf<K>>(blk),
        1 => k.body::<K::Elem>(blk),
        2 => k.body::<Lanes<PlainOf<K>, 2>>(blk),
        4 => k.body::<Lanes<PlainOf<K>, 4>>(blk),
        8 => k.body::<Lanes<PlainOf<K>, 8>>(blk),
        16 => k.body::<Lanes<PlainOf<K>, 16>>(blk),
        64 => k.body::<Lanes<PlainOf<K>, 64>>(blk),
        w => unreachable!("lane groups are 2, 4, 8, 16 or 64 blocks wide, not {w}"),
    }
}

impl Elem for Rv {
    type Host = f32;
    type Re = Rv;
    type Plain = f32;
    const WORDS: usize = 1;

    fn imm(re: f32) -> Self {
        Rv::imm(re)
    }
    fn from_re(r: Rv) -> Self {
        r
    }
    fn re(self) -> Rv {
        self
    }
    fn gload(t: &mut ThreadCtx, s: Slab, off: usize) -> Self {
        t.gload(s.ptr, s.index(t, off))
    }
    fn gstore(t: &mut ThreadCtx, s: Slab, off: usize, v: Self) {
        t.gstore(s.ptr, s.index(t, off), v)
    }
    fn sload(t: &mut ThreadCtx, idx: usize) -> Self {
        t.shared_load(idx)
    }
    fn sstore(t: &mut ThreadCtx, idx: usize, v: Self) {
        t.shared_store(idx, v)
    }
    fn reg_get(t: &mut ThreadCtx, regs: &[Self], i: usize) -> Self {
        t.reg_get(regs, i)
    }
    fn reg_set(t: &mut ThreadCtx, regs: &mut [Self], i: usize, v: Self) {
        t.reg_set(regs, i, v)
    }
    fn add(t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        t.add(a, b)
    }
    fn sub(t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        t.sub(a, b)
    }
    fn mul(t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        t.mul(a, b)
    }
    fn fma(t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        t.fma(a, b, acc)
    }
    fn fnma(t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        t.fnma(a, b, acc)
    }
    fn conj_fma(t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        t.fma(a, b, acc)
    }
    fn conj(_t: &mut ThreadCtx, a: Self) -> Self {
        a
    }
    fn scale_re(t: &mut ThreadCtx, a: Self, s: Rv) -> Self {
        t.mul(a, s)
    }
    fn abs2(t: &mut ThreadCtx, a: Self) -> Rv {
        t.mul(a, a)
    }
    fn recip(t: &mut ThreadCtx, a: Self) -> Self {
        t.recip(a)
    }
    fn is_zero(t: &mut ThreadCtx, a: Self) -> bool {
        t.is_zero(a)
    }
}

impl Real for Rv {
    fn sqrt(t: &mut ThreadCtx, a: Self) -> Self {
        t.sqrt(a)
    }
    fn neg(t: &mut ThreadCtx, a: Self) -> Self {
        t.neg(a)
    }
    fn gt(t: &mut ThreadCtx, a: Self, b: Self) -> bool {
        t.gt(a, b)
    }
    fn neg_if_gt(t: &mut ThreadCtx, v: Self, a: Self, b: Self) -> Self {
        t.neg_if_gt(v, a, b)
    }
}

impl Elem for CRv {
    type Host = C32;
    type Re = Rv;
    type Plain = CVal;
    const WORDS: usize = 2;

    fn imm(re: f32) -> Self {
        CRv::imm(re, 0.0)
    }
    fn from_re(r: Rv) -> Self {
        CRv {
            re: r,
            im: Rv::imm(0.0),
        }
    }
    fn re(self) -> Rv {
        self.re
    }
    fn gload(t: &mut ThreadCtx, s: Slab, off: usize) -> Self {
        t.cgload(s.ptr, s.index(t, off))
    }
    fn gstore(t: &mut ThreadCtx, s: Slab, off: usize, v: Self) {
        t.cgstore(s.ptr, s.index(t, off), v)
    }
    fn sload(t: &mut ThreadCtx, idx: usize) -> Self {
        t.cshared_load(2 * idx)
    }
    fn sstore(t: &mut ThreadCtx, idx: usize, v: Self) {
        t.cshared_store(2 * idx, v)
    }
    fn reg_get(t: &mut ThreadCtx, regs: &[Self], i: usize) -> Self {
        t.reg_get(regs, i)
    }
    fn reg_set(t: &mut ThreadCtx, regs: &mut [Self], i: usize, v: Self) {
        t.reg_set(regs, i, v)
    }
    fn add(t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        t.cadd(a, b)
    }
    fn sub(t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        t.csub(a, b)
    }
    fn mul(t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        t.cmul(a, b)
    }
    fn fma(t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        t.cfma(a, b, acc)
    }
    fn fnma(t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        t.cfnma(a, b, acc)
    }
    fn conj_fma(t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        let ac = t.conj(a);
        t.cfma(ac, b, acc)
    }
    fn conj(t: &mut ThreadCtx, a: Self) -> Self {
        t.conj(a)
    }
    fn scale_re(t: &mut ThreadCtx, a: Self, s: Rv) -> Self {
        t.cscale(a, s)
    }
    fn abs2(t: &mut ThreadCtx, a: Self) -> Rv {
        t.cnorm_sq(a)
    }
    fn recip(t: &mut ThreadCtx, a: Self) -> Self {
        t.crecip(a)
    }
    fn is_zero(t: &mut ThreadCtx, a: Self) -> bool {
        let n = t.cnorm_sq(a);
        t.is_zero(n)
    }
}

impl Elem for f32 {
    type Host = f32;
    type Re = f32;
    type Plain = f32;
    const WORDS: usize = 1;

    fn imm(re: f32) -> Self {
        re
    }
    fn from_re(r: f32) -> Self {
        r
    }
    fn re(self) -> f32 {
        self
    }
    fn gload(t: &mut ThreadCtx, s: Slab, off: usize) -> Self {
        t.gget(s.ptr, s.index(t, off))
    }
    fn gstore(t: &mut ThreadCtx, s: Slab, off: usize, v: Self) {
        t.gset(s.ptr, s.index(t, off), v)
    }
    fn gload_span(t: &mut ThreadCtx, s: Slab, off: usize, regs: &mut [Self]) {
        t.gget_span(s.ptr, s.index(t, off), regs.len(), |k, v| regs[k] = v);
    }
    fn gstore_span(t: &mut ThreadCtx, s: Slab, off: usize, regs: &[Self]) {
        t.gset_span(s.ptr, s.index(t, off), regs.len(), |k| regs[k]);
    }
    fn sload(t: &mut ThreadCtx, idx: usize) -> Self {
        t.sget(idx)
    }
    fn sstore(t: &mut ThreadCtx, idx: usize, v: Self) {
        t.sset(idx, v)
    }
    fn reg_get(_t: &mut ThreadCtx, regs: &[Self], i: usize) -> Self {
        regs[i]
    }
    fn reg_set(_t: &mut ThreadCtx, regs: &mut [Self], i: usize, v: Self) {
        regs[i] = v;
    }
    fn add(_t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        a + b
    }
    fn sub(_t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        a - b
    }
    fn mul(_t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        a * b
    }
    fn fma(_t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        a * b + acc
    }
    fn fnma(_t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        acc - a * b
    }
    fn conj_fma(_t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        a * b + acc
    }
    fn conj(_t: &mut ThreadCtx, a: Self) -> Self {
        a
    }
    fn scale_re(_t: &mut ThreadCtx, a: Self, s: f32) -> Self {
        a * s
    }
    fn abs2(_t: &mut ThreadCtx, a: Self) -> f32 {
        a * a
    }
    fn recip(t: &mut ThreadCtx, a: Self) -> Self {
        t.v_recip(a)
    }
    fn is_zero(t: &mut ThreadCtx, a: Self) -> bool {
        t.v_is_zero(a)
    }
}

impl Real for f32 {
    fn sqrt(t: &mut ThreadCtx, a: Self) -> Self {
        t.v_sqrt(a)
    }
    fn neg(_t: &mut ThreadCtx, a: Self) -> Self {
        -a
    }
    fn gt(t: &mut ThreadCtx, a: Self, b: Self) -> bool {
        t.v_gt(a, b)
    }
    fn neg_if_gt(_t: &mut ThreadCtx, v: Self, a: Self, b: Self) -> Self {
        if a > b {
            -v
        } else {
            v
        }
    }
}

/// Plain complex value: the [`CRv`] operations written out on bare
/// floats, including operand order inside every fused multiply-add (see
/// `ThreadCtx::{cmul, cfma, cfnma, crecip}`), so the rounding pattern is
/// identical.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CVal {
    pub re: f32,
    pub im: f32,
}

impl Elem for CVal {
    type Host = C32;
    type Re = f32;
    type Plain = CVal;
    const WORDS: usize = 2;

    fn imm(re: f32) -> Self {
        CVal { re, im: 0.0 }
    }
    fn from_re(re: f32) -> Self {
        CVal { re, im: 0.0 }
    }
    fn re(self) -> f32 {
        self.re
    }
    fn gload(t: &mut ThreadCtx, s: Slab, off: usize) -> Self {
        let idx = s.index(t, off);
        CVal {
            re: t.gget(s.ptr, 2 * idx),
            im: t.gget(s.ptr, 2 * idx + 1),
        }
    }
    fn gstore(t: &mut ThreadCtx, s: Slab, off: usize, v: Self) {
        let idx = s.index(t, off);
        t.gset(s.ptr, 2 * idx, v.re);
        t.gset(s.ptr, 2 * idx + 1, v.im);
    }
    fn gload_span(t: &mut ThreadCtx, s: Slab, off: usize, regs: &mut [Self]) {
        // Interleaved (re, im) word pairs: even words fill `re`, odd `im`.
        let idx = s.index(t, off);
        t.gget_span(s.ptr, 2 * idx, 2 * regs.len(), |k, v| {
            regs[k / 2].set_word(k % 2, v)
        });
    }
    fn gstore_span(t: &mut ThreadCtx, s: Slab, off: usize, regs: &[Self]) {
        let idx = s.index(t, off);
        t.gset_span(s.ptr, 2 * idx, 2 * regs.len(), |k| regs[k / 2].word(k % 2));
    }
    fn sload(t: &mut ThreadCtx, idx: usize) -> Self {
        CVal {
            re: t.sget(2 * idx),
            im: t.sget(2 * idx + 1),
        }
    }
    fn sstore(t: &mut ThreadCtx, idx: usize, v: Self) {
        t.sset(2 * idx, v.re);
        t.sset(2 * idx + 1, v.im);
    }
    fn reg_get(_t: &mut ThreadCtx, regs: &[Self], i: usize) -> Self {
        regs[i]
    }
    fn reg_set(_t: &mut ThreadCtx, regs: &mut [Self], i: usize, v: Self) {
        regs[i] = v;
    }
    fn add(_t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        CVal {
            re: a.re + b.re,
            im: a.im + b.im,
        }
    }
    fn sub(_t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        CVal {
            re: a.re - b.re,
            im: a.im - b.im,
        }
    }
    fn mul(_t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        let t1 = a.re * b.re;
        let re = t1 - a.im * b.im;
        let t2 = a.re * b.im;
        let im = a.im * b.re + t2;
        CVal { re, im }
    }
    fn fma(_t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        let t1 = a.re * b.re + acc.re;
        let re = t1 - a.im * b.im;
        let t2 = a.re * b.im + acc.im;
        let im = a.im * b.re + t2;
        CVal { re, im }
    }
    fn fnma(_t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        let t1 = acc.re - a.re * b.re;
        let re = a.im * b.im + t1;
        let t2 = acc.im - a.re * b.im;
        let im = t2 - a.im * b.re;
        CVal { re, im }
    }
    fn conj_fma(t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        let ac = Self::conj(t, a);
        Self::fma(t, ac, b, acc)
    }
    fn conj(_t: &mut ThreadCtx, a: Self) -> Self {
        CVal {
            re: a.re,
            im: -a.im,
        }
    }
    fn scale_re(_t: &mut ThreadCtx, a: Self, s: f32) -> Self {
        CVal {
            re: a.re * s,
            im: a.im * s,
        }
    }
    fn abs2(_t: &mut ThreadCtx, a: Self) -> f32 {
        a.norm_sq()
    }
    fn recip(t: &mut ThreadCtx, a: Self) -> Self {
        let n = Self::abs2(t, a);
        let r = t.v_recip(n);
        let c = Self::conj(t, a);
        Self::scale_re(t, c, r)
    }
    fn is_zero(t: &mut ThreadCtx, a: Self) -> bool {
        let n = Self::abs2(t, a);
        t.v_is_zero(n)
    }
}

impl CVal {
    /// `|v|²` as [`Elem::abs2`] computes it.
    #[inline]
    fn norm_sq(self) -> f32 {
        let sq = self.re * self.re;
        self.im * self.im + sq
    }
}

/// A plain element that can sit in the lanes of a [`Lanes`] value: its
/// `WORDS` 32-bit words, one at a time.
pub trait LaneElem: Elem<Plain = Self, Re = f32> + Default {
    /// Word `w` (`< WORDS`) of the element.
    fn word(self, w: usize) -> f32;
    /// Overwrite word `w` of the element.
    fn set_word(&mut self, w: usize, v: f32);
    /// [`Elem::is_zero`]'s test, recording nothing: a lane group records
    /// the common outcome once.
    fn zero(self) -> bool;
}

impl LaneElem for f32 {
    #[inline]
    fn zero(self) -> bool {
        self == 0.0
    }
    #[inline]
    fn word(self, _w: usize) -> f32 {
        self
    }
    #[inline]
    fn set_word(&mut self, _w: usize, v: f32) {
        *self = v;
    }
}

impl LaneElem for CVal {
    #[inline]
    fn zero(self) -> bool {
        self.norm_sq() == 0.0
    }
    #[inline]
    fn word(self, w: usize) -> f32 {
        if w == 0 {
            self.re
        } else {
            self.im
        }
    }
    #[inline]
    fn set_word(&mut self, w: usize, v: f32) {
        if w == 0 {
            self.re = v;
        } else {
            self.im = v;
        }
    }
}

/// One plain value per block of a `W`-wide lane group: lane `l` belongs
/// to the group's `l`-th block. Every operation applies the plain
/// element's operation lane by lane, so each lane performs exactly its own
/// problem's `f32` operations in the scalar order; a branch (`is_zero`,
/// `gt`) must agree across lanes or the group is abandoned (see
/// [`regla_gpu_sim::uniform`]).
#[derive(Clone, Copy, Debug)]
pub struct Lanes<T, const W: usize>(pub [T; W]);

impl<T: Copy + Default, const W: usize> Default for Lanes<T, W> {
    fn default() -> Self {
        Lanes([T::default(); W])
    }
}

/// Build a lane value from its lanes.
#[inline]
fn lanes<T, const W: usize>(f: impl FnMut(usize) -> T) -> Lanes<T, W> {
    Lanes(std::array::from_fn(f))
}

impl<T: LaneElem, const W: usize> Elem for Lanes<T, W> {
    type Host = T::Host;
    type Re = Lanes<f32, W>;
    type Plain = T;
    const WORDS: usize = T::WORDS;

    fn imm(re: f32) -> Self {
        Lanes([T::imm(re); W])
    }
    fn from_re(r: Self::Re) -> Self {
        Lanes(r.0.map(T::from_re))
    }
    fn re(self) -> Self::Re {
        Lanes(self.0.map(T::re))
    }
    fn gload(t: &mut ThreadCtx, s: Slab, off: usize) -> Self {
        let mut out = Self::default();
        for w in 0..T::WORDS {
            let v = t.gget_lanes::<W>(s.ptr, T::WORDS * s.stride, T::WORDS * off + w);
            for (e, v) in out.0.iter_mut().zip(v) {
                e.set_word(w, v);
            }
        }
        out
    }
    fn gstore(t: &mut ThreadCtx, s: Slab, off: usize, v: Self) {
        for w in 0..T::WORDS {
            let words = v.0.map(|e| e.word(w));
            t.gset_lanes(s.ptr, T::WORDS * s.stride, T::WORDS * off + w, words);
        }
    }
    fn gload_span(t: &mut ThreadCtx, s: Slab, off: usize, regs: &mut [Self]) {
        let (stride, len) = (T::WORDS * s.stride, T::WORDS * regs.len());
        t.gget_span_lanes::<W>(s.ptr, stride, T::WORDS * off, len, |k, l, v| {
            regs[k / T::WORDS].0[l].set_word(k % T::WORDS, v)
        });
    }
    fn gstore_span(t: &mut ThreadCtx, s: Slab, off: usize, regs: &[Self]) {
        let (stride, len) = (T::WORDS * s.stride, T::WORDS * regs.len());
        t.gset_span_lanes::<W>(s.ptr, stride, T::WORDS * off, len, |k, l| {
            regs[k / T::WORDS].0[l].word(k % T::WORDS)
        });
    }
    fn sload(t: &mut ThreadCtx, idx: usize) -> Self {
        let mut out = Self::default();
        for w in 0..T::WORDS {
            let v = t.sget_lanes::<W>(T::WORDS * idx + w);
            for (e, v) in out.0.iter_mut().zip(v) {
                e.set_word(w, v);
            }
        }
        out
    }
    fn sstore(t: &mut ThreadCtx, idx: usize, v: Self) {
        for w in 0..T::WORDS {
            t.sset_lanes(T::WORDS * idx + w, v.0.map(|e| e.word(w)));
        }
    }
    fn reg_get(_t: &mut ThreadCtx, regs: &[Self], i: usize) -> Self {
        regs[i]
    }
    fn reg_set(_t: &mut ThreadCtx, regs: &mut [Self], i: usize, v: Self) {
        regs[i] = v;
    }
    fn add(t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        lanes(|l| T::add(t, a.0[l], b.0[l]))
    }
    fn sub(t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        lanes(|l| T::sub(t, a.0[l], b.0[l]))
    }
    fn mul(t: &mut ThreadCtx, a: Self, b: Self) -> Self {
        lanes(|l| T::mul(t, a.0[l], b.0[l]))
    }
    fn fma(t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        lanes(|l| T::fma(t, a.0[l], b.0[l], acc.0[l]))
    }
    fn fnma(t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        lanes(|l| T::fnma(t, a.0[l], b.0[l], acc.0[l]))
    }
    fn conj_fma(t: &mut ThreadCtx, a: Self, b: Self, acc: Self) -> Self {
        lanes(|l| T::conj_fma(t, a.0[l], b.0[l], acc.0[l]))
    }
    fn conj(t: &mut ThreadCtx, a: Self) -> Self {
        lanes(|l| T::conj(t, a.0[l]))
    }
    fn scale_re(t: &mut ThreadCtx, a: Self, s: Self::Re) -> Self {
        lanes(|l| T::scale_re(t, a.0[l], s.0[l]))
    }
    fn abs2(t: &mut ThreadCtx, a: Self) -> Self::Re {
        lanes(|l| T::abs2(t, a.0[l]))
    }
    fn recip(t: &mut ThreadCtx, a: Self) -> Self {
        lanes(|l| T::recip(t, a.0[l]))
    }
    fn is_zero(t: &mut ThreadCtx, a: Self) -> bool {
        t.v_uniform(a.0.map(T::zero))
    }
}

impl<const W: usize> Real for Lanes<f32, W> {
    fn sqrt(t: &mut ThreadCtx, a: Self) -> Self {
        lanes(|l| <f32 as Real>::sqrt(t, a.0[l]))
    }
    fn neg(t: &mut ThreadCtx, a: Self) -> Self {
        lanes(|l| <f32 as Real>::neg(t, a.0[l]))
    }
    fn gt(t: &mut ThreadCtx, a: Self, b: Self) -> bool {
        t.v_uniform((0..W).map(|l| a.0[l] > b.0[l]))
    }
    fn neg_if_gt(t: &mut ThreadCtx, v: Self, a: Self, b: Self) -> Self {
        lanes(|l| <f32 as Real>::neg_if_gt(t, v.0[l], a.0[l], b.0[l]))
    }
}

/// Host scalars that have a device representation.
pub trait DeviceScalar: Scalar {
    type Dev: Elem<Host = Self>;
}

impl DeviceScalar for f32 {
    type Dev = Rv;
}

impl DeviceScalar for C32 {
    type Dev = CRv;
}
