/* Fused round kernels for the trial-batched engine (repro.batch) and
 * the serving round of repro.serve.
 *
 * An engine round runs three phases for every active trial:
 *
 *   phase 1  client-blocked destination gather — a block of CSR rows is
 *            processed for *all* trials before moving to the next
 *            block, so the adjacency table streams through cache once
 *            per round instead of once per trial;
 *   phase 2  per-trial batch counts + the SAER/RAES accept rule,
 *            touching only servers that received balls (their state is
 *            provably unchanged otherwise);
 *   phase 3  branchless survivor compaction, preserving the canonical
 *            (trial-major, client-major) ball order that the engine's
 *            random tape is defined over.
 *
 * The contract: bit-identical outputs to the pure-numpy engine path
 * (same uniforms in, same accept decisions, same state, same survivor
 * order out).  Heavy rounds (balls >= n_servers/4) use a branch-free
 * dense count/reset; light rounds keep a touched-server list so state
 * traffic stays proportional to the balls in flight.
 *
 * The entries:
 *
 *   repro_run_*        a whole engine run — every round of every trial
 *                      in one call, instantiated per state width.  Each
 *                      trial's uniforms are drawn inside phase 1, a
 *                      512-slot chunk at a time, from its own numpy
 *                      PCG64 state (stepped in place and handed back, so
 *                      the caller's Generators end exactly after the
 *                      draws served).  Each round splits the active
 *                      trials into balanced chunks that run phases 1-3
 *                      independently on their own scratch rows (OpenMP
 *                      in the threaded build); chunk boundaries,
 *                      per-trial streams and output offsets are data,
 *                      not scheduling, so the results are
 *                      byte-identical for ANY thread count —
 *                      including a build without OpenMP, where the
 *                      pragma is ignored and the chunks run in order.
 *                      A trial whose remaining balls all belong to
 *                      clients with only blocked servers (SAER
 *                      cum_received > capacity, RAES load >= capacity)
 *                      can change nothing but its counters and its
 *                      draws until the cap, so it jumps there in closed
 *                      form (rounds, work, a PCG64 jump-ahead) instead
 *                      of grinding; see repro_run;
 *   repro_serve_round  one round of ServingState.route: PCG64 draws,
 *                      gather, SAER decide and in-place survivor
 *                      compaction over the alive balls in buffer order,
 *                      bit-identical to the state's numpy route;
 *   repro_repair_pass  one pass of the configuration model's repair walk
 *                      (graphs/generators.py) on the cext gate: the
 *                      previous pass's swaps in order, the next
 *                      duplicate edges in (client, server, edge) order,
 *                      and, once there are none, every row sorted; the
 *                      caller draws the swap partners between calls, so
 *                      the draws and the graph are the numpy walk's;
 *   repro_shuffle      the same build's stub shuffle on the cext gate:
 *                      Generator.shuffle of an int64 array, with its
 *                      draws, its order and its end state, the 32-bit
 *                      draw buffer included.
 *
 * PCG64 draws are bit-identical to Generator.random() (pure integer
 * arithmetic plus one exact double scale).  The compiler's predefined
 * macros under -march=native select the fill; the scalar loop gives the
 * same bits as the SIMD one (REPRO_PCG_LANES == 8, needs AVX-512 F, DQ
 * and VL), which steps eight lanes of one trial's stream at once: lane
 * k yields draws k, k + 8, ..., stepping s <- M^8·s + inc·(M^7 + ... +
 * M + 1) mod 2^128, and the state written back is the lane state of the
 * last draw, never an inverse step; repro_pcg64_lanes() reports which
 * fill was built.
 *
 * The engine entry is instantiated for two state widths via
 * self-inclusion: int32 when every cumulative counter provably fits,
 * int64 otherwise (the serving round is int64 throughout).  The engine
 * guarantees: n_edges < 2^31 (ball keys and CSR offsets are int32),
 * uniforms in [0, 1), ball segments sorted by client within each trial,
 * and count/acc scratch arriving zeroed (every round re-zeroes what it
 * touched).
 */

#ifndef REPRO_KERNELS_PASS
#define REPRO_KERNELS_PASS

#include <stdint.h>
#include <string.h>

#define REPRO_SCALE_53 (1.0 / 9007199254740992.0) /* 2^-53 */
#define REPRO_DRAW_CHUNK 512 /* draws per trial chunk row; power of two */

#if defined(__AVX2__)
#include <immintrin.h>
#endif

/* ---- PCG64: numpy's np.random.PCG64, stepped in place ----
 *
 * A trial's state row is [state_hi, state_lo, inc_hi, inc_lo].  Each
 * draw steps the 128-bit LCG s <- s*M + inc and emits XSL-RR of the
 * stepped state, rotr64(hi(s) ^ lo(s), s >> 122); the double is the top
 * 53 bits times 2^-53 — exactly Generator.random(), so the caller's
 * Generator resumes in step once the row is written back.  Double draws
 * never touch the has_uint32 buffer of numpy's state; the stub shuffle's
 * 32-bit draws do, so its row carries the buffer too (repro_shuffle). */

typedef unsigned __int128 repro_u128;
#define REPRO_PCG_MULT \
    (((repro_u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

/* One 64-bit output: step, then XSL-RR of the stepped state. */
static inline uint64_t repro_pcg64_next(repro_u128 *s, repro_u128 inc)
{
    *s = *s * REPRO_PCG_MULT + inc;
    uint64_t x = (uint64_t)(*s >> 64) ^ (uint64_t)*s;
    unsigned rot = (unsigned)(*s >> 122);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

static inline double repro_pcg64_double(repro_u128 *s, repro_u128 inc)
{
    return (double)(repro_pcg64_next(s, inc) >> 11) * REPRO_SCALE_53;
}

/* Jump a state row ahead by n draws in O(log n) steps, as numpy's
 * PCG64.advance(n) does: the n-fold LCG map s -> M^n·s + inc·(M^(n-1)
 * + ... + M + 1) (mod 2^128) built by square-and-multiply. */
static void repro_pcg64_advance(uint64_t *st, uint64_t n)
{
    repro_u128 mult = REPRO_PCG_MULT;
    repro_u128 plus = ((repro_u128)st[2] << 64) | st[3];
    repro_u128 acc_mult = 1, acc_plus = 0;
    for (; n; n >>= 1) {
        if (n & 1) {
            acc_mult *= mult;
            acc_plus = acc_plus * mult + plus;
        }
        plus *= mult + 1;
        mult *= mult;
    }
    repro_u128 s = ((repro_u128)st[0] << 64) | st[1];
    s = acc_mult * s + acc_plus;
    st[0] = (uint64_t)(s >> 64);
    st[1] = (uint64_t)s;
}

/* ---- PCG64 lanes: eight draws of one stream per step (AVX-512) ----
 *
 * Lane k of eight yields draws k, k + 8, k + 16, ... of the stream: it
 * starts at the state after k + 1 scalar steps and then steps
 * s <- A8·s + C8 with A8 = M^8 and C8 = inc·(M^7 + ... + M + 1)
 * (mod 2^128), which is eight scalar steps at once.  The 128-bit
 * products, the carrying add, XSL-RR, the u64 -> double conversion
 * (exact below 2^53), the x 2^-53 and x deg multiplies, the truncation
 * and the clip are the scalar loop's operations on each lane, so every
 * draw, every slot and the state handed back are the scalar loop's bits.
 * The end state is lane 7 of the last step — the true state after the
 * draws served, never an inverse step.  Fills shorter than two steps,
 * and the n mod 8 tail, run the scalar loop. */

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)
#define REPRO_PCG_LANES 8
#else
#define REPRO_PCG_LANES 1
#endif

/* Which PCG64 fill this build compiled: 8 (AVX-512 lanes) or 1. */
int64_t repro_pcg64_lanes(void) { return REPRO_PCG_LANES; }

#if REPRO_PCG_LANES == 8

typedef struct {
    __m512i hi, lo;
} repro_lanes;

/* High words of the 64 x 64 -> 128-bit products a·b: AVX-512 has no
 * 64-bit high multiply, so four 32 x 32 partial products (mul_epu32
 * reads the low half of each lane) and their carries. */
static inline __m512i repro_mulhi64(__m512i a, __m512i b)
{
    const __m512i m32 = _mm512_set1_epi64(0xFFFFFFFFLL);
    __m512i ah = _mm512_srli_epi64(a, 32), bh = _mm512_srli_epi64(b, 32);
    __m512i p00 = _mm512_mul_epu32(a, b);
    __m512i p01 = _mm512_mul_epu32(a, bh);
    __m512i p10 = _mm512_mul_epu32(ah, b);
    __m512i p11 = _mm512_mul_epu32(ah, bh);
    __m512i mid = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_srli_epi64(p00, 32),
                         _mm512_and_si512(p01, m32)),
        _mm512_and_si512(p10, m32));
    return _mm512_add_epi64(
        _mm512_add_epi64(p11, _mm512_srli_epi64(p01, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(p10, 32),
                         _mm512_srli_epi64(mid, 32)));
}

/* The per-stream constants of one lane step, broadcast. */
typedef struct {
    __m512i a_lo, a_hi, c_lo, c_hi;
} repro_lane_step;

static inline repro_lane_step repro_lane_step_for(repro_u128 inc)
{
    repro_u128 a = 1, c = 0;
    for (int k = 0; k < REPRO_PCG_LANES; k++) {
        a *= REPRO_PCG_MULT;
        c = c * REPRO_PCG_MULT + inc;
    }
    repro_lane_step p;
    p.a_lo = _mm512_set1_epi64((long long)(uint64_t)a);
    p.a_hi = _mm512_set1_epi64((long long)(uint64_t)(a >> 64));
    p.c_lo = _mm512_set1_epi64((long long)(uint64_t)c);
    p.c_hi = _mm512_set1_epi64((long long)(uint64_t)(c >> 64));
    return p;
}

/* s <- A8·s + C8 (mod 2^128) on every lane. */
static inline void repro_lanes_step(repro_lanes *s, const repro_lane_step *p)
{
    __m512i lo = _mm512_mullo_epi64(s->lo, p->a_lo);
    __m512i hi = _mm512_add_epi64(
        repro_mulhi64(s->lo, p->a_lo),
        _mm512_add_epi64(_mm512_mullo_epi64(s->hi, p->a_lo),
                         _mm512_mullo_epi64(s->lo, p->a_hi)));
    lo = _mm512_add_epi64(lo, p->c_lo);
    __mmask8 carry = _mm512_cmplt_epu64_mask(lo, p->c_lo);
    hi = _mm512_add_epi64(hi, p->c_hi);
    s->hi = _mm512_mask_add_epi64(hi, carry, hi, _mm512_set1_epi64(1));
    s->lo = lo;
}

/* Each lane's draw: XSL-RR of its state, top 53 bits times 2^-53. */
static inline __m512d repro_lanes_double(const repro_lanes *s)
{
    __m512i x = _mm512_rorv_epi64(_mm512_xor_si512(s->hi, s->lo),
                                  _mm512_srli_epi64(s->hi, 58));
    return _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(x, 11)),
                         _mm512_set1_pd(REPRO_SCALE_53));
}

/* Lane k starts at the state k + 1 scalar steps past s. */
static inline repro_lanes repro_lanes_start(repro_u128 s, repro_u128 inc)
{
    uint64_t hi[REPRO_PCG_LANES], lo[REPRO_PCG_LANES];
    for (int k = 0; k < REPRO_PCG_LANES; k++) {
        s = s * REPRO_PCG_MULT + inc;
        hi[k] = (uint64_t)(s >> 64);
        lo[k] = (uint64_t)s;
    }
    repro_lanes l;
    l.hi = _mm512_loadu_si512(hi);
    l.lo = _mm512_loadu_si512(lo);
    return l;
}

/* Lane 7's state: the stream's state after the last draw stored. */
static inline repro_u128 repro_lanes_last(const repro_lanes *l)
{
    uint64_t hi[REPRO_PCG_LANES], lo[REPRO_PCG_LANES];
    _mm512_storeu_si512(hi, l->hi);
    _mm512_storeu_si512(lo, l->lo);
    return ((repro_u128)hi[REPRO_PCG_LANES - 1] << 64) |
           lo[REPRO_PCG_LANES - 1];
}

#endif /* REPRO_PCG_LANES == 8 */

static void repro_pcg64_fill(double *dst, int64_t n, uint64_t *st)
{
    repro_u128 s = ((repro_u128)st[0] << 64) | st[1];
    const repro_u128 inc = ((repro_u128)st[2] << 64) | st[3];
    int64_t j = 0;
#if REPRO_PCG_LANES == 8
    if (n >= 2 * REPRO_PCG_LANES) {
        const repro_lane_step p = repro_lane_step_for(inc);
        repro_lanes l = repro_lanes_start(s, inc);
        for (;;) {
            _mm512_storeu_pd(dst + j, repro_lanes_double(&l));
            j += REPRO_PCG_LANES;
            if (j + REPRO_PCG_LANES > n) break;
            repro_lanes_step(&l, &p);
        }
        s = repro_lanes_last(&l);
    }
#endif
    for (; j < n; j++) dst[j] = repro_pcg64_double(&s, inc);
    st[0] = (uint64_t)(s >> 64);
    st[1] = (uint64_t)s;
}

/* Regular-graph twin: int32 CSR offsets min((int)(u * deg), deg - 1). */
static void repro_pcg64_fill_off(
    int32_t *dst, int64_t n, uint64_t *st, int64_t deg)
{
    repro_u128 s = ((repro_u128)st[0] << 64) | st[1];
    const repro_u128 inc = ((repro_u128)st[2] << 64) | st[3];
    const double degd = (double)deg;
    const int32_t dmax = (int32_t)(deg - 1);
    int64_t j = 0;
#if REPRO_PCG_LANES == 8
    if (n >= 2 * REPRO_PCG_LANES) {
        const repro_lane_step p = repro_lane_step_for(inc);
        const __m512d degv = _mm512_set1_pd(degd);
        const __m256i dmaxv = _mm256_set1_epi32(dmax);
        repro_lanes l = repro_lanes_start(s, inc);
        for (;;) {
            __m256i off = _mm512_cvttpd_epi32(
                _mm512_mul_pd(repro_lanes_double(&l), degv));
            _mm256_storeu_si256((__m256i *)(dst + j),
                                _mm256_min_epi32(off, dmaxv));
            j += REPRO_PCG_LANES;
            if (j + REPRO_PCG_LANES > n) break;
            repro_lanes_step(&l, &p);
        }
        s = repro_lanes_last(&l);
    }
#endif
    for (; j < n; j++) {
        int32_t off = (int32_t)(repro_pcg64_double(&s, inc) * degd);
        dst[j] = off > dmax ? dmax : off;
    }
    st[0] = (uint64_t)(s >> 64);
    st[1] = (uint64_t)s;
}

/* Draw the next n uniforms of trial t's stream (its row of the R x 4
 * PCG64 states in pcg) into one chunk row, as doubles or (deg > 0) as
 * CSR offsets.  PCG64 is a sequential stream, so this is only ever
 * called with the trial's slots in order — which the walk below
 * guarantees. */
static inline void repro_fill_chunk(
    uint64_t *pcg, int64_t t, double *row, int64_t n, int64_t deg)
{
    if (deg > 0)
        repro_pcg64_fill_off((int32_t *)row, n, pcg + 4 * t, deg);
    else
        repro_pcg64_fill(row, n, pcg + 4 * t);
}

/* Fused client-blocked gathers over the trial range [a0, a1) — the
 * run entry passes one chunk.  Each trial's balls are sorted by key
 * (client id, or the CSR row start client · Δ on Δ-regular graphs), so
 * the walk takes a block of clients at a time and consumes every
 * trial's run of balls inside it before moving on: the block's CSR rows
 * stream through cache once per round instead of once per trial.  The
 * uniforms are drawn just in time — when the walk first reaches a
 * 512-slot chunk boundary of a trial's segment, the whole chunk is
 * drawn into the trial's own row of the uchunk scratch and then
 * consumed from there.  Per-trial consumption is strictly sequential,
 * so each chunk is drawn exactly once and in slot order (the trigger
 * sits after the block-end check: a walk suspended mid-chunk resumes on
 * the same row without re-triggering, and one suspended exactly at a
 * boundary draws the next chunk on re-entry, its first visit) — which
 * is what lets a sequential PCG64 stream feed it.  uchunk is n_active ×
 * 512 doubles — a quarter-megabyte at 64 trials, so the uniforms never
 * leave L2 and no full-size uniform slab is ever written or read. */

static void phase1_regular_fused(
    uint64_t *pcg, double *uchunk, const int32_t *ball_key,
    int32_t *dest, int64_t a0, int64_t a1, const int64_t *trial_ids,
    const int64_t *seg_start, const int64_t *seg_end, int64_t *cur,
    int64_t reg_deg, const int32_t *indices, int64_t n_clients,
    int64_t block_clients)
{
    for (int64_t a = a0; a < a1; a++) cur[a] = seg_start[a];
    for (int64_t v0 = 0; v0 < n_clients; v0 += block_clients) {
        int64_t block_end = (v0 + block_clients) * reg_deg;
        for (int64_t a = a0; a < a1; a++) {
            int64_t i = cur[a], e = seg_end[a], s0 = seg_start[a];
            /* with a fixed degree the chunk is drawn directly as int32
             * CSR offsets — the uniform doubles never exist in memory;
             * the trial's chunk row is reused as int32 space */
            double *row = uchunk + a * REPRO_DRAW_CHUNK;
            const int32_t *oc = (const int32_t *)row;
            while (i < e && ball_key[i] < block_end) {
                int64_t slot = i - s0;
                if ((slot & (REPRO_DRAW_CHUNK - 1)) == 0) {
                    int64_t len = e - i;
                    if (len > REPRO_DRAW_CHUNK) len = REPRO_DRAW_CHUNK;
                    repro_fill_chunk(pcg, trial_ids[a], row, len, reg_deg);
                }
                /* ball_key is sorted, so the block's run ends at the
                 * first key >= block_end: binary-search it (bounded by
                 * the chunk so oc stays valid) and consume the run in
                 * a straight branch-free loop instead of re-testing
                 * the block condition per draw. */
                int64_t hi = i + REPRO_DRAW_CHUNK - (slot & (REPRO_DRAW_CHUNK - 1));
                if (hi > e) hi = e;
                int64_t lo = i;
                while (lo < hi) {
                    int64_t mid = (lo + hi) >> 1;
                    if (ball_key[mid] < block_end) lo = mid + 1;
                    else hi = mid;
                }
                int64_t run = lo;  /* [i, run): this block, this chunk */
                int64_t j = i;
#if defined(__AVX2__)
                for (; j + 8 <= run; j += 8) {
                    __m256i bk = _mm256_loadu_si256(
                        (const __m256i *)(ball_key + j));
                    __m256i of = _mm256_loadu_si256(
                        (const __m256i *)(oc +
                                          ((j - s0) & (REPRO_DRAW_CHUNK - 1))));
                    __m256i ix = _mm256_add_epi32(bk, of);
                    __m256i dv = _mm256_i32gather_epi32(
                        (const int *)indices, ix, 4);
                    _mm256_storeu_si256((__m256i *)(dest + j), dv);
                }
#endif
                for (; j < run; j++)
                    dest[j] = indices[ball_key[j] +
                                      oc[(j - s0) & (REPRO_DRAW_CHUNK - 1)]];
                i = run;
            }
            cur[a] = i;
        }
    }
}

static void phase1_irregular_fused(
    uint64_t *pcg, double *uchunk, const int32_t *ball_key,
    int32_t *dest, int64_t a0, int64_t a1, const int64_t *trial_ids,
    const int64_t *seg_start, const int64_t *seg_end, int64_t *cur,
    const int32_t *indptr, const int32_t *degrees, const int32_t *indices,
    int64_t n_clients, int64_t block_clients)
{
    for (int64_t a = a0; a < a1; a++) cur[a] = seg_start[a];
    for (int64_t v0 = 0; v0 < n_clients; v0 += block_clients) {
        int64_t block_end = v0 + block_clients;
        for (int64_t a = a0; a < a1; a++) {
            int64_t i = cur[a], e = seg_end[a], s0 = seg_start[a];
            double *ub = uchunk + a * REPRO_DRAW_CHUNK;
            while (i < e && ball_key[i] < block_end) {
                int64_t slot = i - s0;
                if ((slot & (REPRO_DRAW_CHUNK - 1)) == 0) {
                    int64_t len = e - i;
                    if (len > REPRO_DRAW_CHUNK) len = REPRO_DRAW_CHUNK;
                    repro_fill_chunk(pcg, trial_ids[a], ub, len, 0);
                }
                int32_t v = ball_key[i];
                int64_t dg = degrees[v];
                int64_t off = (int64_t)(
                    ub[slot & (REPRO_DRAW_CHUNK - 1)] * (double)dg);
                if (off > dg - 1) off = dg - 1;
                dest[i] = indices[indptr[v] + off];
                i++;
            }
            cur[a] = i;
        }
    }
}

/* ---- One serving round: ServingState.route on the cext gate ----
 *
 * The n alive balls are walked in buffer order; nothing is sorted.
 * Pass 1 draws each ball's uniform from the state's PCG64 row pcg
 * (stepped in place, so the caller's Generator ends exactly where
 * rng.random(n) would leave it), gathers its destination
 * indices[indptr[v] + min((int64)(u · deg), deg - 1)] and counts it
 * into cum_received (and received, when non-NULL).  Pass 2 accepts a
 * ball iff its server's post-round count is <= capacity — with
 * burned == (cum_received > capacity) holding on entry this is exactly
 * the numpy route's ~burned & ~over — and writes the accepted balls'
 * servers, latencies (round_no - birth) and tags (when tags is
 * non-NULL) to rows 0, 1 and 2 of out (3 x n int64; row 0 holds the
 * destinations during pass 1 and is compacted in place, the write index
 * never passing the read index).  The survivors' owners, births and
 * tags are compacted in place the same way, and accepted (when
 * non-NULL) counts the accepted balls per server.  Finally burned is
 * rewritten as cum_received > capacity.  received/accepted arrive
 * zeroed.  Every owner has degree >= 1: admission drops balls at
 * isolated clients, churn preserves degrees and quarantine never
 * strands a client.  Returns the number of balls assigned. */
#define REPRO_SERVE_AHEAD 16

int64_t repro_serve_round(
    uint64_t *pcg, int64_t n, int64_t *owners, int64_t *births,
    int64_t *tags, const int64_t *indptr, const int64_t *indices,
    int64_t *cum_received, uint8_t *burned, int64_t n_s, int64_t capacity,
    int64_t round_no, int64_t *out, int64_t *received, int64_t *accepted)
{
    int64_t *dest = out, *lat = out + n, *out_tags = out + 2 * n;
    repro_u128 s = ((repro_u128)pcg[0] << 64) | pcg[1];
    const repro_u128 inc = ((repro_u128)pcg[2] << 64) | pcg[3];
    for (int64_t i = 0; i < n; i++) {
        int64_t row = indptr[owners[i]];
        int64_t dg = indptr[owners[i] + 1] - row;
        int64_t off = (int64_t)(repro_pcg64_double(&s, inc) * (double)dg);
        if (off > dg - 1) off = dg - 1;
        dest[i] = row + off;
    }
    pcg[0] = (uint64_t)(s >> 64);
    pcg[1] = (uint64_t)s;
    /* The gathers run as their own pass: free of the serial PCG64 chain,
     * the cache misses into a large indices table overlap, and a
     * prefetch REPRO_SERVE_AHEAD balls ahead deepens the overlap. */
    for (int64_t i = 0; i < n; i++) {
        if (i + REPRO_SERVE_AHEAD < n)
            __builtin_prefetch(indices + dest[i + REPRO_SERVE_AHEAD]);
        int64_t d = indices[dest[i]];
        dest[i] = d;
        cum_received[d]++;
        if (received) received[d]++;
    }

    int64_t asg = 0, kept = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t d = dest[i];
        if (cum_received[d] <= capacity) {
            dest[asg] = d;
            lat[asg] = round_no - births[i];
            if (tags) out_tags[asg] = tags[i];
            if (accepted) accepted[d]++;
            asg++;
        } else {
            owners[kept] = owners[i];
            births[kept] = births[i];
            if (tags) tags[kept] = tags[i];
            kept++;
        }
    }
    for (int64_t j = 0; j < n_s; j++) burned[j] = cum_received[j] > capacity;
    return asg;
}

/* ---- One pass of the configuration model's repair walk ----
 *
 * Edge e joins the client whose CSR row (indptr) holds it to servers[e].
 * A call of repro_repair_pass
 *   1. when k_prev > 0, clears touched, applies the previous pass's swaps
 *      servers[dups[t]] <-> servers[partners[t]] for t = 0, 1, ... in
 *      order, and marks the rows of both edges of every swap;
 *   2. lists the duplicate edges of the touched rows (of every row when
 *      all_rows), each an edge whose server a smaller edge index of its
 *      row already holds, in (client, server, edge) order into dups, and
 *      returns their number.  At most cap of them are written: a larger
 *      count asks the caller to grow dups and list again with
 *      k_prev == 0, which leaves servers and touched as they are;
 *   3. when there are none, sorts every row in place, so servers leaves
 *      as the forward CSR.
 * These are the draw-free steps of _repair_walk in graphs/generators.py;
 * _compiled_walk there draws the partners between calls.  A row is
 * scanned in edge order against scratch[server], the edge that last
 * claimed the server: the edge is a duplicate iff that edge lies earlier
 * in the same row and still holds the server, so stale claims from
 * earlier rows or passes need no clearing.  A row's duplicates, listed
 * in edge order, are then put in server order by an insertion sort (few
 * per row).  Every edge, client and server id fits in int32, and scratch
 * holds max(n_s, 4) entries (the caller checks both). */

/* The row holding edge e: the last row whose start is <= e (rows of
 * degree 0 share their start with the next row). */
static inline int64_t repro_row_of(const int64_t *indptr, int64_t n_rows, int64_t e)
{
    int64_t lo = 0, hi = n_rows; /* indptr[lo] <= e < indptr[hi] */
    while (hi - lo > 1) {
        int64_t mid = lo + (hi - lo) / 2;
        if (indptr[mid] <= e) lo = mid; else hi = mid;
    }
    return lo;
}

/* Sort every row of distinct servers in place, in O(d + span / 4096)
 * for a row of d servers spanning span server ids.  The row's servers
 * are set in a bitmap over all n_s servers, whose 64-server words are
 * marked in a summary bitmap, and read back in order through the marked
 * words only, which clears both for the next row.  A word of at most
 * four servers is read back with four fixed stores, not a loop.  The two
 * bitmaps take the first 2 * (ceil(n_s / 64) + ceil(n_s / 4096)) <=
 * max(n_s, 4) entries of scratch, an int32 array, so their words are
 * read and written with memcpy. */
static inline uint64_t repro_word(const int32_t *scratch, int64_t w)
{
    uint64_t x;
    memcpy(&x, scratch + 2 * w, sizeof x);
    return x;
}

static inline void repro_set_word(int32_t *scratch, int64_t w, uint64_t x)
{
    memcpy(scratch + 2 * w, &x, sizeof x);
}

static void repro_sort_rows(
    const int64_t *indptr, int64_t n_rows, int64_t *servers, int64_t n_s,
    int32_t *scratch)
{
    const uint64_t top = (uint64_t)1 << 63; /* ctz of an empty word: 63 */
    int64_t n_words = (n_s + 63) >> 6, n_sum = (n_words + 63) >> 6;
    int32_t *bits = scratch, *sum = scratch + 2 * n_words;
    memset(scratch, 0, (size_t)(n_words + n_sum) * sizeof(uint64_t));
    for (int64_t c = 0; c < n_rows; c++) {
        int64_t *v = servers + indptr[c], d = indptr[c + 1] - indptr[c];
        if (d < 2) continue;
        int64_t lo = v[0], hi = v[0];
        for (int64_t i = 0; i < d; i++) {
            int64_t w = v[i] >> 6;
            repro_set_word(bits, w, repro_word(bits, w) | (uint64_t)1 << (v[i] & 63));
            repro_set_word(sum, w >> 6, repro_word(sum, w >> 6) | (uint64_t)1 << (w & 63));
            if (v[i] < lo) lo = v[i];
            if (v[i] > hi) hi = v[i];
        }
        int64_t k = 0;
        for (int64_t sw = lo >> 12; sw <= hi >> 12; sw++) {
            uint64_t y = repro_word(sum, sw);
            repro_set_word(sum, sw, 0);
            while (y) {
                int64_t w = (sw << 6) + __builtin_ctzll(y);
                uint64_t x = repro_word(bits, w);
                int64_t base = w << 6, p = __builtin_popcountll(x);
                y &= y - 1;
                repro_set_word(bits, w, 0);
                if (p <= 4 && k + 4 <= d) {
                    v[k] = base + __builtin_ctzll(x | top);
                    x &= x - 1;
                    v[k + 1] = base + __builtin_ctzll(x | top);
                    x &= x - 1;
                    v[k + 2] = base + __builtin_ctzll(x | top);
                    x &= x - 1;
                    v[k + 3] = base + __builtin_ctzll(x | top);
                } else {
                    for (int64_t j = k; x; j++) {
                        v[j] = base + __builtin_ctzll(x);
                        x &= x - 1;
                    }
                }
                k += p;
            }
        }
    }
}

int64_t repro_repair_pass(
    const int64_t *indptr, int64_t n_clients, int64_t *servers,
    const int64_t *partners, int64_t k_prev, int32_t *dups, int64_t cap,
    uint8_t *touched, int32_t *scratch, int64_t n_s, int64_t all_rows)
{
    if (k_prev > 0) {
        memset(touched, 0, (size_t)n_clients);
        for (int64_t t = 0; t < k_prev; t++) {
            int64_t i = dups[t], j = partners[t], s = servers[i];
            servers[i] = servers[j];
            servers[j] = s;
            touched[repro_row_of(indptr, n_clients, i)] = 1;
            touched[repro_row_of(indptr, n_clients, j)] = 1;
        }
    }
    int64_t k = 0;
    for (int64_t c = 0; c < n_clients; c++) {
        if (!all_rows && !touched[c]) continue;
        int64_t start = indptr[c], end = indptr[c + 1], k0 = k;
        for (int64_t e = start; e < end; e++) {
            int64_t s = servers[e], f = scratch[s];
            if (f >= start && f < e && servers[f] == s) {
                if (k < cap) dups[k] = (int32_t)e;
                k++;
            } else {
                scratch[s] = (int32_t)e;
            }
        }
        if (k > cap) continue;
        for (int64_t a = k0 + 1; a < k; a++) {
            int32_t e = dups[a];
            int64_t b = a;
            while (b > k0 && servers[dups[b - 1]] > servers[e]) {
                dups[b] = dups[b - 1];
                b--;
            }
            dups[b] = e;
        }
    }
    if (k == 0) repro_sort_rows(indptr, n_clients, servers, n_s, scratch);
    return k;
}

/* ---- The configuration model's stub shuffle ----
 *
 * repro_shuffle(x, m, st) is numpy's Generator.shuffle(x) on m int64
 * entries: for i = m - 1 down to 1 it swaps x[i] with x[j], j drawn
 * uniform on [0, i] by numpy's random_interval — 32-bit draws masked to
 * the smallest all-ones mask >= i, redrawn while above i.  The caller
 * guarantees m <= 2^32, so every draw is 32-bit.  A 32-bit draw takes
 * the buffered upper half of the last 64-bit output when there is one,
 * else the lower half of a fresh output, buffering its upper half —
 * PCG64's has_uint32/uinteger pair.  st is the six-word row [state_hi,
 * state_lo, inc_hi, inc_lo, has_uint32, uinteger], written back, so a
 * shuffle that starts with a half buffered (the walk's rng.integers
 * draws can leave one) and one that ends with it match numpy's.  Each
 * draw depends on the last, so the loop is scalar. */
void repro_shuffle(int64_t *x, int64_t m, uint64_t *st)
{
    repro_u128 s = ((repro_u128)st[0] << 64) | st[1];
    const repro_u128 inc = ((repro_u128)st[2] << 64) | st[3];
    uint64_t has = st[4];
    uint32_t half = (uint32_t)st[5];
    for (int64_t i = m - 1; i > 0; i--) {
        uint32_t mask = (uint32_t)i, v;
        mask |= mask >> 1;
        mask |= mask >> 2;
        mask |= mask >> 4;
        mask |= mask >> 8;
        mask |= mask >> 16;
        do {
            if (has) {
                v = half;
                has = 0;
            } else {
                uint64_t r = repro_pcg64_next(&s, inc);
                v = (uint32_t)r;
                half = (uint32_t)(r >> 32);
                has = 1;
            }
            v &= mask;
        } while (v > (uint64_t)i);
        int64_t t = x[i];
        x[i] = x[v];
        x[v] = t;
    }
    st[0] = (uint64_t)(s >> 64);
    st[1] = (uint64_t)s;
    st[4] = has;
    st[5] = half;
}

#define REPRO_STATE int32_t
#define REPRO_NAME(base) base##_i32
#include __FILE__
#undef REPRO_STATE
#undef REPRO_NAME

#define REPRO_STATE int64_t
#define REPRO_NAME(base) base##_i64
#include __FILE__
#undef REPRO_STATE
#undef REPRO_NAME

#else /* REPRO_KERNELS_PASS: parameterized body */

/* Phase 2 + 3 for one trial: batch counts and the accept rule on ball
 * range [i0, i1), then (when do_compact) the trial's survivors written
 * base-relative at `out` — repro_run packs each chunk's trials from the
 * chunk's first ball slot for the later left-pack.  Writes the accepted-ball count to
 * *acc_balls_out and returns the survivor count.  count/touched/acc
 * must arrive zeroed and are re-zeroed before returning. */
static int64_t REPRO_NAME(round_trial)(
    const int32_t *ball_key, const int32_t *dest,
    int64_t i0, int64_t i1, int64_t t,
    REPRO_STATE *state1, REPRO_STATE *state2, int64_t n_s,
    int64_t capacity, int64_t is_raes,
    REPRO_STATE *count, int32_t *touched, uint8_t *acc,
    int32_t *out, int64_t do_compact, int64_t *acc_balls_out)
{
    int64_t k = i1 - i0;
    REPRO_STATE *s1 = state1 + t * n_s;
    REPRO_STATE *s2 = state2 + t * n_s;
    int64_t acc_balls = 0, kept = 0;
    if (k >= n_s / 4) {
        /* dense: branch-free counting, full server sweep, memset
         * reset — fastest when most servers are touched anyway */
        for (int64_t i = i0; i < i1; i++)
            count[dest[i]]++;
        for (int64_t s = 0; s < n_s; s++) {
            REPRO_STATE cnt = count[s];
            if (!cnt) continue;
            REPRO_STATE c = s1[s] + cnt;
            if (!is_raes) s1[s] = c;
            if (c <= capacity) {
                s2[s] = c;
                acc[s] = 1;
                acc_balls += cnt;
            }
        }
        if (do_compact)
            for (int64_t i = i0; i < i1; i++) {
                out[kept] = ball_key[i];
                kept += !acc[dest[i]];
            }
        memset(count, 0, (size_t)n_s * sizeof(REPRO_STATE));
        memset(acc, 0, (size_t)n_s);
    } else {
        /* sparse: state traffic proportional to touched servers */
        int64_t nt = 0;
        for (int64_t i = i0; i < i1; i++) {
            int32_t s = dest[i];
            if (count[s]++ == 0) touched[nt++] = s;
        }
        for (int64_t j = 0; j < nt; j++) {
            int32_t s = touched[j];
            REPRO_STATE cnt = count[s];
            REPRO_STATE c = s1[s] + cnt;
            if (!is_raes) s1[s] = c;
            if (c <= capacity) {
                s2[s] = c;
                acc[s] = 1;
                acc_balls += cnt;
            }
        }
        if (do_compact)
            for (int64_t i = i0; i < i1; i++) {
                out[kept] = ball_key[i];
                kept += !acc[dest[i]];
            }
        for (int64_t j = 0; j < nt; j++) {
            count[touched[j]] = 0;
            acc[touched[j]] = 0;
        }
    }
    *acc_balls_out = acc_balls;
    return kept;
}

/* Whether every client holding a ball in [i0, i1) — one trial's balls,
 * sorted by key — sees only blocked servers, by the predicates of
 * blocked_counts(): SAER cum_received > capacity, RAES load >=
 * capacity (st is the trial's state1 row of n_s servers: cum_received
 * or loads).  Both counters only grow, so a blocked server stays
 * blocked, and both cursors only move forward.  *server_cursor counts
 * the trial's leading servers known to be blocked: once it reaches n_s
 * the trial is starved without reading a neighbour list, at O(n_s) per
 * trial over a whole run.  Otherwise cursor[v] counts client v's
 * leading neighbours known to be blocked, so each edge is passed at
 * most once per trial over a whole run; the walk stops at the first
 * client that still has an admissible server. */
static int REPRO_NAME(starved)(
    const int32_t *ball_key, int64_t i0, int64_t i1, int32_t *cursor,
    int64_t *server_cursor, int64_t reg_deg, const int32_t *indptr,
    const int32_t *degrees, const int32_t *indices, const REPRO_STATE *st,
    int64_t n_s, int64_t capacity, int64_t is_raes)
{
    int64_t sc = *server_cursor;
    if (is_raes)
        while (sc < n_s && st[sc] >= capacity) sc++;
    else
        while (sc < n_s && st[sc] > capacity) sc++;
    *server_cursor = sc;
    if (sc == n_s) return 1;
    int64_t prev = -1;
    for (int64_t i = i0; i < i1; i++) {
        int64_t key = ball_key[i];
        if (key == prev) continue; /* another ball of the same client */
        prev = key;
        int64_t v = reg_deg > 0 ? key / reg_deg : key;
        const int32_t *nbr = indices + (reg_deg > 0 ? key : indptr[v]);
        int64_t dg = reg_deg > 0 ? reg_deg : degrees[v];
        int64_t c = cursor[v];
        if (is_raes)
            while (c < dg && st[nbr[c]] >= capacity) c++;
        else
            while (c < dg && st[nbr[c]] > capacity) c++;
        cursor[v] = (int32_t)c;
        if (c < dg) return 0;
    }
    return 1;
}

/* A whole engine run: every round of every trial in one call.
 *
 * pcg (R x 4 PCG64 state rows, stepped in place) supplies each trial's
 * uniforms, drawn in phase 1 into its row of uchunk (R x
 * REPRO_DRAW_CHUNK doubles).  ball_key arrives holding every trial's
 * initial balls (R segments of total_balls); ball_key, alt_key and dest
 * are R * total_balls int32 each and are scratch from then on.  counts/toucheds/accs are
 * n_threads x n_s scratch rows (counts and accs zeroed).  cursors is
 * R x n_clients int32 scratch for the starvation check below; a
 * trial's row is zeroed the first time it is used, which the per-trial
 * flags in ws record; ws also holds each trial's server cursor, and is
 * 9R + n_threads + 1 int64 of scratch.
 * rounds, work, assigned and alive_total (R each, alive_total preset
 * to total_balls) are updated per trial.
 *
 * Each round splits the active trials into nc = min(n_threads, active)
 * balanced chunks, in order: the first active % nc chunks take
 * active / nc + 1 trials, the rest active / nc.  A chunk runs
 * phases 1-3 for its trials on its own scratch row and packs its
 * survivors contiguously from its first ball slot in alt_key; the
 * sequential left-pack then moves each chunk's run down to its
 * canonical offset (destination <= source, chunks in order, so the
 * in-place moves never overwrite a run not yet moved).  Trials with no
 * ball left drop out.  The round that reaches cap stops the run with
 * the remaining trials un-finished, as in the numpy engine.
 *
 * Starved trials jump to the cap.  After a round in which a trial
 * accepted no ball, starved() checks whether every client it still
 * has balls at sees only blocked servers.  If so, no later round can
 * change anything the caller reads: each ball goes to a blocked server
 * and is rejected, a SAER server's cum_received stays above capacity
 * (blocked_servers is unchanged) and a RAES load does not move.  Only
 * the counters and the draws advance, by closed forms: with k = cap -
 * round rounds left and `alive` balls, rounds grows by k, work by
 * 2·alive·k, and the trial's PCG64 row jumps ahead by alive·k draws.
 * The trial then drops out with its balls alive, ending exactly where
 * grinding to the cap would leave it — except cum_received on
 * already-burned servers, which stays a lower bound. */
void REPRO_NAME(repro_run)(
    uint64_t *pcg, double *uchunk,
    int32_t *ball_key, int32_t *alt_key, int32_t *dest,
    int64_t R, int64_t total_balls, int64_t cap,
    int64_t reg_deg, const int32_t *indptr, const int32_t *degrees,
    const int32_t *indices, int64_t n_clients, int64_t block_clients,
    REPRO_STATE *state1, REPRO_STATE *state2,
    int64_t n_s, int64_t capacity, int64_t is_raes,
    REPRO_STATE *counts, int32_t *toucheds, uint8_t *accs,
    int64_t n_threads, int64_t *ws, int32_t *cursors,
    int64_t *rounds, int64_t *work, int64_t *assigned, int64_t *alive_total)
{
    int64_t *active = ws, *sent = ws + R, *n_acc = ws + 2 * R;
    int64_t *cur = ws + 3 * R, *seg_start = ws + 4 * R, *seg_end = ws + 5 * R;
    int64_t *n_keep = ws + 6 * R, *cursor_ready = ws + 7 * R;
    int64_t *server_cursor = ws + 8 * R, *chunk_starts = ws + 9 * R;
    int64_t T = n_threads < 1 ? 1 : n_threads;
    int nthr = (int)T;
    (void)nthr; /* unused when built without OpenMP */

    int64_t A = total_balls > 0 ? R : 0;
    for (int64_t a = 0; a < A; a++) {
        active[a] = a;
        sent[a] = total_balls;
        cursor_ready[a] = 0;
        server_cursor[a] = 0;
    }
    for (int64_t round_no = 1; A > 0; round_no++) {
        int64_t do_compact = round_no < cap;
        int64_t pos = 0;
        for (int64_t a = 0; a < A; a++) {
            int64_t t = active[a];
            rounds[t] += 1;
            work[t] += 2 * sent[a];
            seg_start[a] = pos;
            pos += sent[a];
            seg_end[a] = pos;
        }
        int64_t nc = T < A ? T : A, base = A / nc, rem = A % nc;
        chunk_starts[0] = 0;
        for (int64_t ci = 0; ci < nc; ci++)
            chunk_starts[ci + 1] = chunk_starts[ci] + base + (ci < rem);

#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(nthr)
#endif
        for (int64_t ci = 0; ci < nc; ci++) {
            int64_t a0 = chunk_starts[ci], a1 = chunk_starts[ci + 1];
            REPRO_STATE *count = counts + ci * n_s;
            int32_t *touched = toucheds + ci * n_s;
            uint8_t *acc = accs + ci * n_s;
            if (reg_deg > 0)
                phase1_regular_fused(pcg, uchunk, ball_key, dest, a0, a1,
                                     active, seg_start, seg_end, cur,
                                     reg_deg, indices, n_clients,
                                     block_clients);
            else
                phase1_irregular_fused(pcg, uchunk, ball_key, dest, a0, a1,
                                       active, seg_start, seg_end, cur,
                                       indptr, degrees, indices, n_clients,
                                       block_clients);
            int32_t *out = alt_key + seg_start[a0];
            for (int64_t a = a0; a < a1; a++) {
                int64_t t = active[a];
                n_keep[a] = REPRO_NAME(round_trial)(
                    ball_key, dest, seg_start[a], seg_end[a], t,
                    state1, state2, n_s, capacity, is_raes, count, touched,
                    acc, out, do_compact, n_acc + a);
                if (do_compact && n_acc[a] == 0) {
                    int32_t *cursor = cursors + t * n_clients;
                    if (!cursor_ready[t]) {
                        memset(cursor, 0, (size_t)n_clients * sizeof(int32_t));
                        cursor_ready[t] = 1;
                    }
                    if (REPRO_NAME(starved)(
                            ball_key, seg_start[a], seg_end[a], cursor,
                            server_cursor + t, reg_deg, indptr, degrees,
                            indices, state1 + t * n_s, n_s, capacity,
                            is_raes)) {
                        int64_t k = cap - round_no;
                        int64_t alive = seg_end[a] - seg_start[a];
                        rounds[t] += k;
                        work[t] += 2 * alive * k;
                        repro_pcg64_advance(pcg + 4 * t,
                                            (uint64_t)(alive * k));
                        n_keep[a] = 0; /* drop it: no survivors packed */
                    }
                }
                out += n_keep[a];
            }
        }

        for (int64_t a = 0; a < A; a++) {
            int64_t t = active[a];
            assigned[t] += n_acc[a];
            alive_total[t] -= n_acc[a];
            sent[a] -= n_acc[a];
        }
        if (!do_compact) break; /* the cap round: no survivors written */

        int64_t out = 0;
        for (int64_t ci = 0; ci < nc; ci++) {
            int64_t a0 = chunk_starts[ci], a1 = chunk_starts[ci + 1];
            int64_t kept = 0;
            for (int64_t a = a0; a < a1; a++) kept += n_keep[a];
            if (kept && out != seg_start[a0])
                memmove(alt_key + out, alt_key + seg_start[a0],
                        (size_t)kept * sizeof(int32_t));
            out += kept;
        }
        int32_t *tmp = ball_key;
        ball_key = alt_key;
        alt_key = tmp;

        /* n_keep == sent after a compacting round, except for the
         * starved trials just dropped with balls alive */
        int64_t live = 0;
        for (int64_t a = 0; a < A; a++)
            if (n_keep[a] > 0) {
                active[live] = active[a];
                sent[live] = sent[a];
                live++;
            }
        A = live;
    }
}

#endif /* REPRO_KERNELS_PASS */
