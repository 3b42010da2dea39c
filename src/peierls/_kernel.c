/* The package's compiled kernel, four entry points built into one library (peierls/kernel.py):
 *
 * - peierls_flood, the one connectivity kernel of the Monte Carlo and its one site hash: an invasion flood over
 *   hashed keys;
 * - peierls_walk, the census's circuit walk: every restricted self-avoiding circuit of every start in one walk, its
 *   tree split over threads;
 * - peierls_shapes, the span-pruned shape tree of the census and the event table, grown whole in one call, each kept
 *   shape as its contour's census key, its cover and its counts, and peierls_free for the records it hands back;
 * - peierls_classes, the census's class pass: every distinct contour checked and traced, and classified around each of
 *   its origin positions.
 *
 * Build: cc -O2 -shared -fPIC -pthread -o kernel.so _kernel.c
 *
 * THE FLOOD
 *
 * Trial t of run seed draws its field from the trial seed mix(seed ^ t * TRIALSALT); with h0 = mix(trial seed ^
 * GOLDEN) and the column hash hx[x] = mix(h0 + x * XSALT), site (x, y) of the field hashes to mix(hx[x] + y *
 * YSALT), all mod 2**64, and mix the splitmix64 finalizer.  A hash depends on (seed, t, x, y) only, never on the
 * window.  A field is the (2L+1) x (2L+1) window |x|, |y| <= L, row-major from (-L, -L), and its site's key is 0
 * when its hash is below `bound` and max(1, hash >> (64 - m)) otherwise, a key in [0, 2**m).
 *
 * The flood's result is the least, over the 4-connected paths from a source site to a target site, of the
 * largest key on the path.  At m = 1 the keys are 0 on the occupied sites (hash below bound) and 1 on the vacant
 * ones, and the result is 0 exactly when an occupied path joins a source to a target.  With bound = 2**(64 - m)
 * the key is hash >> (64 - m), a site is occupied at c = j / 2**m exactly when its key is below j, and from the
 * left column to the right one the result is the field's critical index j*: it crosses at j / 2**m exactly when
 * j exceeds it.  Invasion percolation finds it (Wilkinson and Willemsen, J. Phys. A 16, 3365 (1983)): a flood
 * from the sources takes, one at a time, a site of least key among those it borders, and its level, the largest
 * key it has taken, is the result when it first takes a target.  It stops once its level is 2**m - 1, which no
 * result can exceed, so a flood at m = 1 ends when the occupied sites joined to the sources run out.  A site is
 * hashed when the flood first borders it, so a flood hashes only the sites it borders, each once.
 *
 * The flood runs on a framed copy of the window: its (2L+1) x (2L+1) sites inside a frame one site wide, W = 2L + 3
 * sites a row, so that window site (x, y) is s = (y + L + 1) * W + x + L + 1 and its neighbours are s - 1, s + 1, s - W
 * and s + W.  The frame is marked bordered before each field's flood, so the flood never files a frame site and no
 * step tests x or y against the window's edges, whatever the targets; the target mask is copied into the framed
 * window once a call, 0 on the frame.  A site's framed coordinates travel with it, packed as
 * (y + L + 1) * 2**16 + x + L + 1 in at[s] when it is filed, so a taken site's column and row cost no division.  At
 * the largest window _SITE_LIMIT in montecarlo.py admits, radius 16383, W = 32769: W * W = 1,073,807,361, and a filed
 * site, never on the frame, packs to at most 32767 * 2**16 + 32767 = 2,147,450,879, both below 2**31, so both fit an
 * int32.
 *
 * A taken site hashes its four neighbours before it tests which are new, so their four mix chains overlap, and then
 * files the new ones left, up, down and right.  A bucket is a stack, so within a level the flood is a depth-first
 * search that takes the right neighbour, filed last, first: at a field's last level it heads for the right column.
 * No order in which one level's sites are taken can change a result.  A site taken at level j is joined to a source
 * by sites of key at most j.  The flood leaves level j only when its border holds no site of level j or below, and a
 * site of key at most j first bordered at a level cur <= j is filed at most at j, so by then it has taken every site
 * joined to a source by sites of key at most j.  So it first takes a target at the least j at which such sites join
 * a source to one, in whatever order it takes that level's sites.
 *
 * The border is a bucket queue: head[k] starts a list, linked through next, of the bordering sites of level k,
 * k < 2**m.  A site first bordered at level cur is filed at max(key, cur), since the level never falls, so the
 * flood takes the lowest bucket at or above cur.  The top bucket 2**m - 1 is never taken from; its head, never
 * negative, ends the search.
 *
 * The flood of a field has bordered site s when seen[s] equals the field's stamp, a byte in 1..255 that each field
 * bumps.  seen is zeroed when it is allocated, and again only when the stamp wraps past 255 and restarts at 1, so
 * no site an earlier field bordered carries the stamp, and a flood that borders a few hundred of the window's sites
 * does not clear the whole window each field.
 */

#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define GOLDEN 0x9E3779B97F4A7C15u
#define XSALT 0xD1B54A32D192ED03u
#define YSALT 0x8CB92BA72F3D8DD7u
#define TRIALSALT 0xD1342543DE82EF95u

static uint64_t mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

/* The key of a site of hash h: 0 when h is below bound, else max(1, h >> shift). */
static int32_t key_of(uint64_t h, uint64_t bound, int32_t shift)
{
    return h < bound ? 0 : h >> shift ? (int32_t)(h >> shift) : 1;
}

/* Mark the one-site frame of the W x W framed window bordered: seen[s] = stamp on its first and last rows, and on its
 * last and first columns, which meet end to end from one row to the next. */
static void frame(uint8_t *seen, int32_t W, uint8_t stamp)
{
    memset(seen, stamp, (size_t)W);
    memset(seen + (size_t)W * (W - 1), stamp, (size_t)W);
    for (int32_t s = W - 1; s < W * (W - 1); s += W)
        seen[s] = seen[s + 1] = stamp;
}

/* File site s, of hash h and packed coordinates p, on the border of the flood at level max(its key, cur): a step of
 * peierls_flood, on its bound, shift, stamp, coordinates and bucket queue. */
#define BORDER(s, h, p)                                                                                                \
    do {                                                                                                               \
        const int32_t key_ = key_of(h, bound, shift), level_ = key_ > cur ? key_ : cur;                                \
        seen[s] = stamp;                                                                                               \
        at[s] = (p);                                                                                                   \
        next[s] = head[level_];                                                                                        \
        head[level_] = (s);                                                                                            \
    } while (0)

/* The result of each of the `fields` trials t0, t0 + 1, ... (mod 2**64) of run seed on the radius-L window, at
 * 1 <= m <= 16, from the `nsources` sites `sources` (indices into the window) to the sites s with target[s]
 * nonzero, written to out; 2**m - 1 with no source.  Returns 0, or -1 when the scratch cannot be allocated. */
int peierls_flood(uint64_t seed, uint64_t t0, int64_t fields, int32_t L, uint64_t bound, int32_t m,
                  const int32_t *sources, int32_t nsources, const uint8_t *target, int32_t *out)
{
    const int32_t side = 2 * L + 1, W = side + 2, n = W * W, top = (1 << m) - 1, shift = 64 - m, ROW = 1 << 16;
    int32_t *head = malloc(((size_t)top + 1) * sizeof *head);
    int32_t *next = malloc((size_t)n * sizeof *next), *at = malloc((size_t)n * sizeof *at);
    uint8_t *seen = calloc((size_t)n, 1), *goal = calloc((size_t)n, 1), stamp = 0;
    uint64_t *hx = malloc((size_t)W * sizeof *hx);
    if (!head || !next || !at || !seen || !goal || !hx) {
        free(head);
        free(next);
        free(at);
        free(seen);
        free(goal);
        free(hx);
        return -1;
    }
    for (int32_t y = 0; y < side; y++)
        memcpy(goal + (size_t)(y + 1) * W + 1, target + (size_t)y * side, (size_t)side);
    for (int64_t f = 0; f < fields; f++) {
        const uint64_t h0 = mix(mix(seed ^ (t0 + (uint64_t)f) * TRIALSALT) ^ GOLDEN);
        for (int32_t x = 0; x < W; x++)
            hx[x] = mix(h0 + (uint64_t)(x - 1 - L) * XSALT);
        memset(head, 0xff, (size_t)top * sizeof *head); /* every list below the top empty: -1 */
        head[top] = 0;
        if (!++stamp) { /* past 255: no site bordered by an earlier field may carry the new stamp */
            memset(seen, 0, (size_t)n);
            stamp = 1;
        }
        frame(seen, W, stamp);
        int32_t cur = 0;
        for (int32_t i = 0; i < nsources; i++) {
            const int32_t x = sources[i] % side + 1, y = sources[i] / side + 1, s = y * W + x;
            if (seen[s] != stamp)
                BORDER(s, mix(hx[x] + (uint64_t)(y - 1 - L) * YSALT), y * ROW + x);
        }
        for (;;) {
            while (head[cur] < 0)
                cur++;
            if (cur == top)
                break;
            const int32_t s = head[cur];
            head[cur] = next[s];
            if (goal[s])
                break;
            /* the four neighbours' hashes, by column and row term yt = y * YSALT, then the new ones filed left, up,
             * down and right, so that the right one is taken first */
            const int32_t p = at[s], x = p & (ROW - 1);
            const uint64_t yt = (uint64_t)((p >> 16) - 1 - L) * YSALT, hc = hx[x] + yt;
            const uint64_t hl = mix(hx[x - 1] + yt), hu = mix(hc + YSALT), hd = mix(hc - YSALT),
                           hr = mix(hx[x + 1] + yt);
            if (seen[s - 1] != stamp)
                BORDER(s - 1, hl, p - 1);
            if (seen[s + W] != stamp)
                BORDER(s + W, hu, p + ROW);
            if (seen[s - W] != stamp)
                BORDER(s - W, hd, p - ROW);
            if (seen[s + 1] != stamp)
                BORDER(s + 1, hr, p + 1);
        }
        out[f] = cur;
    }
    free(head);
    free(next);
    free(at);
    free(seen);
    free(goal);
    free(hx);
    return 0;
}

/* THE CIRCUIT WALK
 *
 * A restricted circuit of length k starts at a ray site (l, 0), 1 <= l <= starts = (k_max - 2) / 2, takes one of
 * the first steps E, NE, N, NW and the east dip SE, and turns by at most `turns` eighths of a full turn at each
 * later king step: 2 under the five rule, 3 under the seven rule.  It never enters a site twice, nor a ray site
 * (j, 0) with j < l, and after k sites it steps back onto its start, winding around the origin.  Relative to its
 * start, start l's walks are the walks of start 1 that avoid the sites (-2, 0) .. (-l, 0).  So one depth-first walk
 * of start 1's tree walks every start: a walk carries hit, the least j >= 2 with (-j, 0) on it or starts + 1,
 * whichever is less, and belongs to the starts l < hit, with one winding sum each, around its origin (-l, 0).
 *
 * A walk of d sites steps onto a site at king distance D from its start only if D <= k_max - d, since it could not
 * return in time otherwise.  So no walk leaves the window of king distance k_max / 2 around its start, and a walk's
 * sites are a bitmask over that window.  Each step is a node of every start whose tree holds it, so it adds hit - 1
 * to the node count; the first steps, from the start, are not counted.
 *
 * A walk of d >= 4 sites next to its start closes for each of its starts it winds around: start l's winding sum
 * is the sum of the crossing terms around (-l, 0) of its steps, the closing one included.  It counts once for each
 * such start in walks[d], and it is recorded as its key, the site mask, and one bit for each such start.  The mask
 * holds the walk's d sites and (-1, 0), so a key's length is its bit count less 1.  A start's distinct circuits of
 * length d are its distinct site sets, so distinct[d] sums, over the distinct keys of length d, the starts in the
 * union of their bits.
 *
 * The subtree of the first step SE is the mirror image of NE's in y -> -y.  The turn rules, the distance pruning, the
 * window, the start and the ray sites (-j, 0) are all symmetric under that reflection, so it maps NE's walks one to one
 * onto SE's, each with the same hit and so the same nodes.  A reflected closed walk winds around each origin by the
 * negated sum, so it closes for the same starts.  So SE's subtree is never walked: a step in NE's subtree counts its
 * nodes and its closed walks twice, and a closed walk there is recorded with its reflection.
 *
 * The rest of start 1's tree is cut at its first two steps into the subtrees of 4 * (2 * turns + 1) step pairs, a
 * fixed list.  Up to `threads` threads, the caller's among them and no more than there are subtrees, take the next
 * subtree of the list from a shared atomic index until none is left, each with its own sites, winding sums, walks[d]
 * and node count.  The keys are cut into as many shards as there are threads by the mix of their masks, and each
 * thread appends its records to its own list for each shard: appending costs the walk less than a hash set grown as
 * it goes, which rehashes and touches fresh pages at each doubling.  Once the threads are joined, a second round of
 * threads takes the shards, one at a time: a hash set of a shard's records, sized at twice their number, keeps the
 * first record of each key and ORs the bits of its equals into it, counting in distinct[d] the starts each record adds
 * to the union.  A key falls in one shard only, so each distinct key counts once, with the union of all its bits.  Sums
 * and unions do not depend on which thread took which subtree.  A thread that cannot be started leaves its jobs to the
 * others, and every thread is joined before peierls_walk returns, so a process that forks after it forks no running
 * thread.
 *
 * Each thread adds its nodes to a shared atomic total every BATCH nodes and at its end, stops once the total passes
 * max_nodes, and takes no subtree after that.  The counts only grow, so a walk that stops early passes max_nodes
 * whole as well, and the total summed once the threads are joined decides every other case: the walk is cut short
 * exactly when all of its nodes pass max_nodes.
 */

/* The king steps, counter-clockwise from east (lattice.NEIGHBOR_OFFSETS_8). */
static const int32_t DX[8] = {1, 1, 0, -1, -1, -1, 0, 1}, DY[8] = {0, 1, 1, 1, 0, -1, -1, -1};
/* The first steps whose subtrees are walked: NE, which counts for SE too, E, N and NW. */
static const int32_t FIRST[4] = {1, 0, 2, 3};

#define MAX_SUBTREES 28 /* the subtrees of the seven rule: 4 first steps, 7 second steps each */
#define BATCH 4096      /* the nodes a thread counts before it adds them to the shared total */
#define LINE 64         /* the bytes of a cache line, which one thread's writes keep to themselves */

/* The signed crossing of the step (x0, y0) -> (x1, y1) with the ray from the origin, as clusters._crossing: +1 from
 * y <= 0 to y > 0 right of the origin, -1 back, 0 otherwise. */
static int32_t crossing(int32_t x0, int32_t y0, int32_t x1, int32_t y1)
{
    const int32_t up = (y1 > 0) - (y0 > 0);
    return up * (up * (x0 * y1 - x1 * y0) > 0);
}

/* The set bits of x, summed in parallel over ever wider fields of x (SWAR): no branch, and no libgcc call, which
 * __builtin_popcountll becomes without -mpopcnt. */
static int32_t popcount(uint64_t x)
{
    x -= x >> 1 & 0x5555555555555555u;
    x = (x & 0x3333333333333333u) + (x >> 2 & 0x3333333333333333u);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Fu;
    return (int32_t)(x * 0x0101010101010101u >> 56);
}

/* One thread's closed walks of one shard: n records of width + 1 words, the key and then the start bits, with room
 * for `room`. */
struct records {
    uint64_t *rec;
    size_t n, room;
};

struct circuits;

/* One thread of the walk: the walk's limits, its own sites, winding sums, counts and records, and the weight of the
 * subtree it walks, 2 in NE's and 1 elsewhere. */
struct walker {
    struct circuits *c;
    int32_t k_max, turns, starts, radius, side, width;
    int32_t weight;
    int code;                  /* 0; 1 once the total passed max_nodes; -1 when the records could not grow */
    int64_t pending;           /* the nodes not yet added to the total */
    char *scratch;             /* the block of the arrays below */
    uint64_t *seen;            /* the walk's sites, its start and (-1, 0): a bit a site of the window, row by row */
    uint64_t *mirror;          /* a closed walk's mask reflected in y -> -y */
    int32_t *wind;             /* wind[d * starts + l - 1]: the winding sum around (-l, 0) of the first d sites */
    int64_t *walks, *distinct; /* k_max + 1 counts each; distinct those of the shard of the walker's index */
    struct records out[MAX_SUBTREES]; /* out[s]: the closed walks of shard s */
} __attribute__((aligned(LINE))); /* cache lines of its own for each thread's walker */

/* The walk of every start: its list of subtrees, its threads and the state they share. */
struct circuits {
    int32_t subtrees, threads;
    int64_t max_nodes;
    int64_t total;  /* the nodes the walkers have added, atomic */
    int32_t next;   /* the next job of a round of threads, atomic */
    int32_t failed; /* nonzero once a walker's records could not grow, atomic */
    struct walker walkers[MAX_SUBTREES];
};

/* The mix of the key `mask`. */
static uint64_t key_hash(const uint64_t *mask, int32_t width)
{
    uint64_t h = 0;
    for (int32_t j = 0; j < width; j++)
        h = mix(h ^ mask[j]);
    return h;
}

/* Add the walker's pending nodes to the total: 1 when the total passes max_nodes, else 0. */
static int flush(struct walker *w)
{
    const int64_t total = __atomic_add_fetch(&w->c->total, w->pending, __ATOMIC_RELAXED);
    w->pending = 0;
    return total > w->c->max_nodes;
}

/* Append the key `mask`, closed for the starts of `bits`, to the walker's records of its shard: 0, or -1 when they
 * cannot grow. */
static int record(struct walker *w, const uint64_t *mask, uint64_t bits)
{
    const size_t stride = (size_t)w->width + 1;
    const int32_t shards = w->c->threads;
    struct records *r = &w->out[shards > 1 ? key_hash(mask, w->width) % (uint64_t)shards : 0];
    if (r->n == r->room) {
        const size_t room = r->room ? 2 * r->room : 256;
        uint64_t *grown = realloc(r->rec, room * stride * sizeof *grown);
        if (!grown)
            return -1;
        r->rec = grown;
        r->room = room;
    }
    memcpy(r->rec + r->n * stride, mask, (size_t)w->width * sizeof *mask);
    r->rec[r->n++ * stride + w->width] = bits;
    return 0;
}

/* Record the walker's closed walk, closed for the starts of `bits`, with its reflection in NE's subtree: 0, or -1 when
 * the records cannot grow. */
static int closed(struct walker *w, uint64_t bits)
{
    if (record(w, w->seen, bits))
        return -1;
    if (w->weight == 1)
        return 0;
    memset(w->mirror, 0, (size_t)w->width * sizeof *w->mirror);
    /* site s of row y of the window to the same column of row side - 1 - y */
    for (int32_t j = 0; j < w->width; j++)
        for (uint64_t sites = w->seen[j]; sites; sites &= sites - 1) {
            const int32_t s = j * 64 + __builtin_ctzll(sites), t = s + (w->side - 1 - 2 * (s / w->side)) * w->side;
            w->mirror[t >> 6] |= (uint64_t)1 << (t & 63);
        }
    return record(w, w->mirror, bits);
}

/* Take the steps d + t, t0 <= t <= t1, from the walk of `depth` sites at (u, v), entered in direction d, whose least
 * ray site (-j, 0), j >= 2, is `hit`, and walk on: 0; 1 once the total passes max_nodes; -1 when the walker's records
 * cannot grow. */
static int extend(struct walker *w, int32_t u, int32_t v, int32_t d, int32_t t0, int32_t t1, int32_t depth, int32_t hit)
{
    const int32_t *wind = w->wind + (size_t)depth * w->starts;
    int32_t *next = w->wind + (size_t)(depth + 1) * w->starts;
    for (int32_t t = t0; t <= t1; t++) {
        const int32_t d1 = (d + t) & 7, u1 = u + DX[d1], v1 = v + DY[d1];
        const int32_t dist = abs(u1) > abs(v1) ? abs(u1) : abs(v1);
        if (dist > w->k_max - depth)
            continue;
        const int32_t s = (v1 + w->radius) * w->side + u1 + w->radius;
        const uint64_t bit = (uint64_t)1 << (s & 63);
        if (w->seen[s >> 6] & bit)
            continue;
        /* (-1, 0) is seen, so a ray site ahead is (-j, 0) with j >= 2 */
        const int32_t hit1 = v1 == 0 && u1 < 0 && -u1 < hit ? -u1 : hit;
        w->pending += w->weight * (hit1 - 1);
        if (w->pending >= BATCH && flush(w))
            return 1;
        if ((v > 0) == (v1 > 0)) /* a step on one side of the ray's line crosses no ray */
            memcpy(next, wind, (size_t)(hit1 - 1) * sizeof *next);
        else
            for (int32_t l = 1; l < hit1; l++)
                next[l - 1] = wind[l - 1] + crossing(l + u, v, l + u1, v1);
        w->seen[s >> 6] |= bit;
        if (depth + 1 >= 4 && dist == 1) {
            uint64_t bits = 0;
            for (int32_t l = 1; l < hit1; l++)
                if (next[l - 1] + crossing(l + u1, v1, l, 0))
                    bits |= (uint64_t)1 << (l - 1);
            w->walks[depth + 1] += w->weight * popcount(bits);
            if (bits && closed(w, bits))
                return -1;
        }
        if (depth + 1 < w->k_max) {
            const int code = extend(w, u1, v1, d1, -w->turns, w->turns, depth + 1, hit1);
            if (code)
                return code;
        }
        w->seen[s >> 6] &= ~bit;
    }
    return 0;
}

/* Walk the subtree of the first step d and then the step d + t from the start, each step counting `weight` times and,
 * at weight 2, each closed walk recorded with its reflection: 0, 1 or -1 as extend. */
static int subtree(struct walker *w, int32_t d, int32_t t, int32_t weight)
{
    const int32_t s = (DY[d] + w->radius) * w->side + DX[d] + w->radius;
    w->weight = weight;
    for (int32_t l = 1; l <= w->starts; l++)
        w->wind[2 * w->starts + l - 1] = crossing(l, 0, l + DX[d], DY[d]);
    w->seen[s >> 6] |= (uint64_t)1 << (s & 63);
    const int code = extend(w, DX[d], DY[d], d, t, t, 2, w->starts + 1);
    w->seen[s >> 6] &= ~((uint64_t)1 << (s & 63));
    return code;
}

/* A walking thread: the next subtree of the list, while one is left, the total is within max_nodes and no walker
 * failed, and then its last nodes added to the total. */
static void *walk_subtrees(void *arg)
{
    struct walker *w = arg;
    struct circuits *c = w->c;
    const int32_t fan = 2 * w->turns + 1;
    while (!w->code && !__atomic_load_n(&c->failed, __ATOMIC_RELAXED) &&
           __atomic_load_n(&c->total, __ATOMIC_RELAXED) <= c->max_nodes) {
        const int32_t j = __atomic_fetch_add(&c->next, 1, __ATOMIC_RELAXED);
        if (j >= c->subtrees)
            break;
        const int32_t d = FIRST[j / fan];
        if ((w->code = subtree(w, d, j % fan - w->turns, d == 1 ? 2 : 1)) < 0)
            __atomic_store_n(&c->failed, 1, __ATOMIC_RELAXED);
    }
    flush(w);
    return NULL;
}

/* Record `number`, from 1, of shard s, the records of walker 0 first, then walker 1's, and so on. */
static uint64_t *shard_record(const struct circuits *c, int32_t s, size_t number)
{
    const size_t stride = (size_t)c->walkers[0].width + 1;
    int32_t t = 0;
    while (number > c->walkers[t].out[s].n)
        number -= c->walkers[t++].out[s].n;
    return c->walkers[t].out[s].rec + (number - 1) * stride;
}

/* Count the distinct keys of shard s into distinct: a hash set of its records' numbers, a power of two of slots at
 * least twice the records, probed linearly from the mix of a key, holds the first record of each key, which takes the
 * bits of its equals, and each record counts the starts it adds to its key's union.  0, or -1 when the set cannot be
 * allocated. */
static int dedupe(const struct circuits *c, int32_t s, int64_t *distinct)
{
    const int32_t width = c->walkers[0].width;
    size_t n = 0, size = 2, number = 0;
    for (int32_t t = 0; t < c->threads; t++)
        n += c->walkers[t].out[s].n;
    while (size < 2 * n)
        size *= 2;
    uint32_t *slot = n < UINT32_MAX ? calloc(size, sizeof *slot) : NULL; /* record numbers, 0 an empty slot */
    if (!slot)
        return -1;
    for (int32_t t = 0; t < c->threads; t++) {
        const struct records *r = &c->walkers[t].out[s];
        for (uint64_t *key = r->rec; key < r->rec + r->n * ((size_t)width + 1); key += width + 1) {
            size_t at = key_hash(key, width) & (size - 1);
            uint64_t *held = NULL;
            for (; slot[at]; at = (at + 1) & (size - 1)) {
                held = shard_record(c, s, slot[at]);
                int32_t j = 0;
                while (j < width && held[j] == key[j])
                    j++;
                if (j == width)
                    break;
                held = NULL;
            }
            const uint64_t had = held ? held[width] : 0;
            number++;
            if (held)
                held[width] |= key[width];
            else
                slot[at] = (uint32_t)number;
            int32_t sites = 0;
            for (int32_t j = 0; j < width; j++)
                sites += popcount(key[j]);
            distinct[sites - 1] += popcount(had | key[width]) - popcount(had);
        }
    }
    free(slot);
    return 0;
}

/* A deduplicating thread: the next shard, while one is left, counted into the distinct[d] of the walker of its
 * index. */
static void *dedupe_shards(void *arg)
{
    struct circuits *c = ((struct walker *)arg)->c;
    for (int32_t s; (s = __atomic_fetch_add(&c->next, 1, __ATOMIC_RELAXED)) < c->threads;)
        if (dedupe(c, s, c->walkers[s].distinct))
            __atomic_store_n(&c->failed, 1, __ATOMIC_RELAXED);
    return NULL;
}

/* Run body on the walkers, walker 0 on the calling thread and each other on a thread of its own, and join them.  A
 * thread that cannot be started runs nothing: each body takes its jobs from the shared index, which the others
 * drain. */
static void run_threads(struct circuits *c, void *(*body)(void *))
{
    pthread_t id[MAX_SUBTREES];
    int32_t started = 1;
    c->next = 0;
    while (started < c->threads && !pthread_create(&id[started], NULL, body, &c->walkers[started]))
        started++;
    body(&c->walkers[0]);
    for (int32_t i = 1; i < started; i++)
        pthread_join(id[i], NULL);
}

/* Set up the walk of the restricted circuits of lengths up to k_max of every start that turn by at most `turns` eighths
 * a step, on `threads` walkers, at least 1 and no more than the subtrees, each with its start and (-1, 0) seen: 0, or
 * -1 when their scratch cannot be allocated.  close_walk releases the scratch either way. */
static int open_walk(struct circuits *c, int32_t k_max, int32_t turns, int64_t max_nodes, int32_t threads)
{
    const int32_t radius = k_max / 2, side = 2 * radius + 1, width = (side * side + 63) / 64;
    const int32_t subtrees = 4 * (2 * turns + 1), starts = (k_max - 2) / 2;
    const size_t origin = (size_t)radius * side + radius, counts = (size_t)k_max + 1;
    const size_t bytes = (2 * width + 2 * counts) * sizeof(uint64_t) + counts * starts * sizeof(int32_t);
    int code = 0;
    *c = (struct circuits){.subtrees = subtrees, .threads = threads < 1 ? 1 : threads < subtrees ? threads : subtrees,
                           .max_nodes = max_nodes};
    for (int32_t i = 0; i < c->threads; i++) {
        struct walker *w = &c->walkers[i];
        *w = (struct walker){.c = c, .k_max = k_max, .turns = turns, .starts = starts, .radius = radius, .side = side,
                             .width = width};
        /* one block: seen, mirror, walks and distinct, then wind, a cache line clear of the others' on either side */
        w->scratch = calloc(1, 2 * LINE + bytes);
        if (!w->scratch) {
            code = -1;
            continue;
        }
        w->seen = (uint64_t *)(w->scratch + LINE);
        w->mirror = w->seen + width;
        w->walks = (int64_t *)(w->mirror + width);
        w->distinct = w->walks + counts;
        w->wind = (int32_t *)(w->distinct + counts);
        /* the start and (-1, 0), the ray site every start avoids */
        w->seen[origin >> 6] |= (uint64_t)1 << (origin & 63);
        w->seen[(origin - 1) >> 6] |= (uint64_t)1 << ((origin - 1) & 63);
    }
    return code;
}

static void close_walk(struct circuits *c)
{
    for (int32_t i = 0; i < c->threads; i++) {
        struct walker *w = &c->walkers[i];
        free(w->scratch);
        for (int32_t s = 0; s < c->threads; s++)
            free(w->out[s].rec);
    }
}

/* Walk the restricted circuits of lengths up to k_max of every start, 4 <= k_max and (k_max - 2) / 2 <= 64, that turn
 * by at most `turns` eighths a step, 2 or 3, on up to `threads` threads: walks[k] and distinct[k], for k <= k_max, the
 * circuits of length k and their distinct site sets, summed over the starts, and *nodes the steps taken.  Returns 0;
 * 1, the walk cut short, once the steps pass max_nodes; -1 when the scratch cannot be allocated. */
int peierls_walk(int32_t k_max, int32_t turns, int64_t max_nodes, int32_t threads, int64_t *walks, int64_t *distinct,
                 int64_t *nodes)
{
    struct circuits c;
    int code = open_walk(&c, k_max, turns, max_nodes, threads);
    if (!code) {
        run_threads(&c, walk_subtrees);
        code = c.failed ? -1 : c.total > max_nodes;
    }
    if (!code) {
        run_threads(&c, dedupe_shards);
        code = c.failed ? -1 : 0;
    }
    memset(walks, 0, ((size_t)k_max + 1) * sizeof *walks);
    memset(distinct, 0, ((size_t)k_max + 1) * sizeof *distinct);
    for (int32_t i = 0; i < c.threads && !code; i++)
        for (int32_t d = 0; d <= k_max; d++) {
            walks[d] += c.walkers[i].walks[d];
            distinct[d] += c.walkers[i].distinct[d];
        }
    *nodes = c.total;
    close_walk(&c);
    return code;
}

/* THE SHAPE TREE
 *
 * Redelmeier's tree of the fixed polyominoes of up to cap cells (Redelmeier, Discrete Math. 36 (1981) 191-203), grown
 * depth-first and cut down by the span lemma below.  A shape is anchored at its lowest, leftmost cell, the origin, so
 * its cells lie in the half plane y > 0 or (y = 0 and x >= 0).
 *
 * The span lemma.  Over a shape's cells, let du and dv be the ranges of the diagonal coordinates u = x + y and
 * v = x - y.  A shape whose contour has k sites has k >= du + dv + 4:
 * - a king step (dx, dy) changes u by dx + dy and v by dx - dy, and |dx + dy| + |dx - dy| = 2, exactly.  A closed
 *   cycle goes from its least u to its largest and back, and so for v, so a cycle of k steps has
 *   2 * k >= 2 * range(u) + 2 * range(v) over its sites;
 * - a contour strictly surrounds its cluster, so the ray from a cell of least u, umin, in direction (-1, -1) meets the
 *   cycle at a point of smaller u.  u is linear along the king edge there, so one end of that edge, a lattice site,
 *   has u <= umin - 1.  The same holds at umax, vmin and vmax: the contour's u range is at least du + 2, its v range at
 *   least dv + 2.
 * A shape with du + dv + 4 > max_len is dropped with its subtree, since adding a cell never lowers du or dv.  The cut
 * is tight: the 5-cell plus has an 8-site contour, with du = dv = 2.  It implies the box lemma: x = (u + v) / 2, so a
 * shape's width less 1 is at most (du + dv) / 2 <= (max_len - 4) / 2, and its height alike.  So the shapes grown lie in
 * |x| < box, 0 <= y < box, box = min((max_len - 2) / 2, cap), and their neighbours in |x| <= box, 0 <= y <= box.  Site
 * (x, y) there is bit y * (2 * box + 1) + x of a site mask: the bits >= 0 are the half plane, in (y, x) order.
 *
 * A shape carries its untried sites.  Its children take them lowest first, and the child that takes site i keeps the
 * untried sites above i and adds those of i's axis neighbours that no shape on the path to it has seen, so the tree
 * meets every fixed shape once.  One call grows the whole tree: cut down, it builds 2,813 shapes at max_len = 12.
 *
 * Each shape built sits in a square frame of box + 4 rows of box + 4 bits, cell (x, y) at bit x - xmin + 2 of row
 * y + 2: padded by 2, so that its boundary stays off the frame's edge and the edge lies in its exterior.  Its boundary
 * (the free axis neighbours of its cells), its exterior (the free sites an axis path over free sites joins to the
 * frame's edge) and its contour (the boundary sites with an axis neighbour in the exterior) are the steps of
 * clusters._contour, on 64-bit rows.  A shape whose contour has at most max_len sites is kept as a record of
 * 2 * (box + 2) + 3 uint32_t words, in the census's own format: its contour's rows and its cell rows, both moved by
 * (-1, -1), and its cell, boundary and enclosed counts.  The padding puts the shape's lowest row and leftmost column
 * at 2, so the boundary sites below and left of those cells, which touch the exterior in row and column 0, make frame
 * site (1, 1) the contour's bounding-box corner, always: moved, the contour's rows are its stride-32 census key
 * (enumeration._CANON_STRIDE), site (x, y) at bit x of row y, and the cell rows the cover of its origin positions.  The
 * enclosed sites are those neither exterior nor on the contour.
 *
 * These steps run over the shape's own rows only, 0 .. ymax + 4 for a shape whose top cell row is ymax: the rows above
 * hold no cell and no boundary site, so they are wholly exterior, joined to the edge through row ymax + 4, and hold no
 * enclosed site.  The contour is counted no further once it passes max_len.
 */

#define MAX_CAP 30 /* the largest cap, enumeration._MAX_SHAPE */
#define MAX_ROWS (MAX_CAP + 4) /* the rows of the largest frame */

/* The tree in progress: its limits, the path's seen and untried sites, the shape and the kept records. */
struct tree {
    int32_t max_len, cap, box, side, height, words;
    int64_t built;        /* the shapes built */
    uint64_t full;        /* the bits of a frame row */
    uint64_t *seen;       /* the sites seen on the path */
    uint64_t *untried;    /* untried[size * words ...]: the untried sites of the path's shape of `size` cells */
    uint64_t cells[MAX_CAP]; /* row y of the shape, cell (x, y) at bit x + box */
    uint32_t *rec;        /* the kept records, stride = 2 * (height - 2) + 3 words each */
    size_t nrec, maxrec, stride;
};

/* Grow row y of the exterior by its neighbours in the rows above and below and along the row, within its free sites:
 * 1 when it grew, else 0. */
static int spread(uint64_t *ext, const uint64_t *vacant, int32_t y, int32_t height)
{
    uint64_t e = (ext[y] | (y ? ext[y - 1] : 0) | (y + 1 < height ? ext[y + 1] : 0)) & vacant[y], grown;
    while ((grown = (e | e << 1 | e >> 1) & vacant[y]) != e)
        e = grown;
    if (e == ext[y])
        return 0;
    ext[y] = e;
    return 1;
}

/* Grow the exterior ext of the h rows within their free sites vacant, one pass up the rows and one down: 1 when it grew,
 * else 0. */
static int sweep(uint64_t *ext, const uint64_t *vacant, int32_t h)
{
    int grown = 0;
    for (int32_t y = 0; y < h; y++)
        grown |= spread(ext, vacant, y, h);
    for (int32_t y = h - 1; y >= 0; y--)
        grown |= spread(ext, vacant, y, h);
    return grown;
}

/* The free sites vacant of the h frame rows `blocked`, full the bits of a row, and the start of their exterior ext: the
 * free sites that see the frame's top or bottom edge along their column. */
static void exterior_start(const uint64_t *blocked, uint64_t *vacant, uint64_t *ext, int32_t h, uint64_t full)
{
    uint64_t below[MAX_ROWS], seen = 0;
    for (int32_t y = 0; y < h; y++)
        below[y] = seen |= blocked[y];
    seen = 0;
    for (int32_t y = h - 1; y >= 0; y--) {
        seen |= blocked[y];
        vacant[y] = ~blocked[y] & full;
        ext[y] = vacant[y] & ~(below[y] & seen);
    }
}

/* The contour of the boundary bnd against the exterior ext, the boundary sites with an axis neighbour in it, and its
 * length, counted no further, and its rows filled in no further, once it passes limit. */
static int32_t contour_length(const uint64_t *bnd, const uint64_t *ext, uint64_t *contour, int32_t height, int32_t limit)
{
    int32_t length = 0;
    for (int32_t y = 0; y < height && length <= limit; y++) {
        contour[y] = bnd[y] & (ext[y] << 1 | ext[y] >> 1 | (y ? ext[y - 1] : 0) | (y + 1 < height ? ext[y + 1] : 0));
        length += popcount(contour[y]);
    }
    return length;
}

/* Build the path's shape of `size` cells, whose leftmost column is xmin and top row ymax, in its frame, and keep it if
 * its contour has at most max_len sites: 0, or -1 when the records cannot grow. */
static int shape(struct tree *t, int32_t size, int32_t xmin, int32_t ymax)
{
    /* the frame's rows up to the shape's top row padded by 2; the rows above are exterior, all of them */
    const int32_t h = t->height, rows = ymax + 5;
    uint64_t cells[MAX_ROWS], bnd[MAX_ROWS], blocked[MAX_ROWS], vacant[MAX_ROWS], ext[MAX_ROWS], contour[MAX_ROWS];
    t->built++;
    for (int32_t y = 0; y < rows; y++)
        cells[y] = y >= 2 && y < rows - 2 ? t->cells[y - 2] >> (xmin + t->box) << 2 : 0;
    for (int32_t y = 0; y < rows; y++) {
        const uint64_t near = cells[y] << 1 | cells[y] >> 1 | (y ? cells[y - 1] : 0) | (y + 1 < rows ? cells[y + 1] : 0);
        bnd[y] = near & t->full & ~cells[y];
        blocked[y] = cells[y] | bnd[y];
    }
    exterior_start(blocked, vacant, ext, rows, t->full);
    /* the exterior only grows, and so does the contour: one already too long is kept no further */
    int32_t length = 0;
    for (int grown = 1; grown; grown = sweep(ext, vacant, rows))
        if ((length = contour_length(bnd, ext, contour, rows, t->max_len)) > t->max_len)
            return 0;
    const int32_t kh = h - 2; /* the rows of a key */
    if (t->nrec == t->maxrec) {
        uint32_t *grown = realloc(t->rec, 2 * t->maxrec * t->stride * sizeof *grown);
        if (!grown)
            return -1;
        t->rec = grown;
        t->maxrec *= 2;
    }
    uint32_t *r = memset(t->rec + t->nrec++ * t->stride, 0, t->stride * sizeof *t->rec), *counts = r + 2 * kh;
    counts[0] = (uint32_t)size;
    counts[2] = (uint32_t)(rows * h - length); /* less the exterior: the rows above the shape's are all exterior */
    for (int32_t y = 0; y < rows; y++)
        counts[2] -= (uint32_t)popcount(ext[y]);
    /* the key and the cover: rows 1 .. rows - 2, the only ones with cells or boundary sites, moved by (-1, -1) */
    for (int32_t y = 1; y < rows - 1; y++) {
        r[y - 1] = (uint32_t)(contour[y] >> 1);
        r[kh + y - 1] = (uint32_t)(cells[y] >> 1);
        counts[1] += (uint32_t)popcount(bnd[y]);
    }
    return 0;
}

/* Grow the children of the path's shape of `size` cells, whose leftmost column is xmin, top row ymax, and diagonal
 * coordinates u = x + y and v = x - y span umin..umax and vmin..vmax, and their subtrees: 0, or -1 when the records
 * cannot grow. */
static int grow(struct tree *t, int32_t size, int32_t xmin, int32_t ymax, int32_t umin, int32_t umax, int32_t vmin,
                int32_t vmax)
{
    uint64_t *untried = t->untried + (size_t)size * t->words, *next = untried + t->words;
    for (int32_t w = 0; w < t->words; w++)
        while (untried[w]) {
            /* the lowest untried site: the children after this one keep the sites above it only */
            const int32_t i = w * 64 + __builtin_ctzll(untried[w]);
            untried[w] &= untried[w] - 1;
            const int32_t y = (i + t->box) / t->side, x = i - y * t->side, u = x + y, v = x - y;
            const int32_t u0 = u < umin ? u : umin, u1 = u > umax ? u : umax, v0 = v < vmin ? v : vmin,
                          v1 = v > vmax ? v : vmax;
            if ((u1 - u0) + (v1 - v0) + 4 > t->max_len) /* the span lemma: its contour and its subtree's are too long */
                continue;
            const uint64_t cell = (uint64_t)1 << (x + t->box);
            const int32_t x0 = x < xmin ? x : xmin, y1 = y > ymax ? y : ymax;
            t->cells[y] |= cell;
            if (shape(t, size + 1, x0, y1))
                return -1;
            if (size + 1 < t->cap) {
                /* a cell of a grown shape has |x| < box and y < box, so its neighbours stay in their rows */
                const int32_t near[4] = {i + 1, i - 1, i + t->side, i - t->side};
                int32_t added[4], n = 0;
                memcpy(next, untried, (size_t)t->words * sizeof *next);
                for (int32_t k = 0; k < 4; k++) {
                    const int32_t s = near[k];
                    if (s >= 0 && !(t->seen[s >> 6] >> (s & 63) & 1)) {
                        t->seen[s >> 6] |= (uint64_t)1 << (s & 63);
                        next[s >> 6] |= (uint64_t)1 << (s & 63);
                        added[n++] = s;
                    }
                }
                const int code = grow(t, size + 1, x0, y1, u0, u1, v0, v1);
                for (int32_t k = 0; k < n; k++)
                    t->seen[added[k] >> 6] &= ~((uint64_t)1 << (added[k] & 63));
                if (code)
                    return code;
            }
            t->cells[y] &= ~cell;
        }
    return 0;
}

/* Grow the span-pruned tree of shapes of up to cap cells, 4 <= max_len and 1 <= cap <= 30, and keep the shapes whose
 * contour has at most max_len sites: *records the kept records, *kept their number and *built the shapes built.
 * Returns 0, *records to be released with peierls_free; -1 when the scratch or the records cannot be allocated,
 * *records NULL. */
int peierls_shapes(int32_t max_len, int32_t cap, uint32_t **records, int64_t *kept, int64_t *built)
{
    const int32_t span = (max_len - 2) / 2, box = span < cap ? span : cap;
    struct tree t = {.max_len = max_len, .cap = cap, .box = box, .side = 2 * box + 1, .height = box + 4, .maxrec = 256,
                     .stride = 2 * ((size_t)box + 2) + 3};
    t.words = (box * t.side + box + 64) / 64; /* the sites up to (box, box) */
    t.full = ((uint64_t)1 << t.height) - 1;
    t.seen = calloc((size_t)t.words, sizeof *t.seen);
    t.untried = calloc((size_t)(cap + 1) * t.words, sizeof *t.untried);
    t.rec = malloc(t.maxrec * t.stride * sizeof *t.rec);
    int code = -1;
    if (t.seen && t.untried && t.rec) {
        t.seen[0] = t.untried[0] = 1; /* the origin */
        code = grow(&t, 0, 0, 0, 0, 0, 0, 0);
    }
    free(t.seen);
    free(t.untried);
    *built = t.built;
    *kept = code ? 0 : (int64_t)t.nrec;
    if (code) {
        free(t.rec);
        t.rec = NULL;
    }
    *records = t.rec;
    return code;
}

/* Release the records of peierls_shapes. */
void peierls_free(void *records)
{
    free(records);
}

/* THE CLASS PASS
 *
 * The census's distinct contours, each checked and traced into its counter-clockwise cycle, and classified around each
 * of its origin positions (enumeration._classes).  Contour j is the `height` rows keys[j * height + y], 1 <= height <=
 * KEY_ROWS, site (x, y) at bit x of row y, and its origin positions are the rows covers[j * height + y] alike.
 *
 * A contour is traced in a frame of height + 2 rows of KEY_ROWS + 2 columns with a free ring, site (x, y) at (x + 1,
 * y + 1).  Its filled set is what the exterior of its sites leaves, the exterior grown as the shape tree grows it.  Cell
 * (x, y) is the unit square with corners (x, y) and (x + 1, y + 1), and the walk follows the unit edges between the
 * filled set and the exterior, keeping the filled set on its left.  So it leaves a site at the end of the site's last
 * exposed side (bottom, right, top and left in turn) and goes on to the diagonal cell past that corner if it is filled, a
 * right turn, or else straight on to the cell ahead.  The cycle follows these successors from the smallest site by
 * (x, y).
 *
 * An origin position's class is (length, l, i): (l, 0) is the nearest contour site on the ray of sites (j, 0), j >= 1,
 * from the position, and i the class of the cycle's step after it, as enumeration.class_decomposition gives it.
 *
 * Each check that fails ends the pass with its code, in this order: a position on its contour, over every contour;
 * then, contour by contour, a pinched corner, a filled site exposed off the contour or a contour site not exposed, a
 * site with two runs of exposed sides or four, a walk that does not close after exactly the contour's sites, and a
 * clockwise walk; then, position by position, a ray that meets no contour site, a step after the ray site that is no
 * first step, and a winding number other than 1.
 */

#define KEY_ROWS 32 /* the rows and columns of a census key, enumeration._CANON_STRIDE */

enum { ON_CONTOUR = 1, PINCHED, PERIMETER, REVISIT, CURVES, CLOCKWISE, NO_RAY, FIRST_STEP, WINDING };

/* The king step from a contour site to the next, per last exposed side (bottom, right, top, left) and then per diagonal
 * cell past its end corner (free, filled): straight on, or a right turn. */
static const int32_t TURN_DX[8] = {1, 1, 0, 1, -1, -1, 0, -1}, TURN_DY[8] = {0, -1, 1, 1, 0, 1, -1, -1};
/* The class of the step (dx, dy) after the ray site, at [dy + 1][dx + 1]: E 1, NE 2, N 3, NW 4, and the east dip SE
 * with E; 0 for the steps that are no first step. */
static const int32_t FIRST_CLASS[3][3] = {{0, 0, 1}, {0, 0, 1}, {4, 3, 2}};

/* Trace the contour of the h frame rows `rows`, full the bits of a row, into its `length` sites, site t at xy[2 * t] and
 * xy[2 * t + 1] in the key's coordinates: 0, or the code of the check it fails, where[0] and where[1] the frame
 * coordinates of a pinched corner. */
static int trace(const uint64_t *rows, int32_t h, uint64_t full, int32_t length, int32_t *xy, int32_t *where)
{
    uint64_t vacant[MAX_ROWS], filled[MAX_ROWS], last[4][MAX_ROWS], twice = 0;
    exterior_start(rows, vacant, filled, h, full);
    while (sweep(filled, vacant, h))
        ;
    for (int32_t y = 0; y < h; y++)
        filled[y] = ~filled[y] & full;
    /* corners with filled cells on one diagonal and free ones on the other */
    for (int32_t y = 0; y + 1 < h; y++) {
        const uint64_t lo = filled[y], hi = filled[y + 1];
        const uint64_t pinched = (lo << 1 & hi & ~lo & ~(hi << 1)) | (lo & hi << 1 & ~(lo << 1) & ~hi);
        if (pinched) {
            where[0] = __builtin_ctzll(pinched);
            where[1] = y + 1;
            return PINCHED;
        }
    }
    for (int32_t y = 0; y < h; y++) {
        const uint64_t f = filled[y], below = y ? filled[y - 1] : 0, above = y + 1 < h ? filled[y + 1] : 0;
        const uint64_t bottom = f & ~below, right = f & ~(f >> 1), top = f & ~above, left = f & ~(f << 1);
        if ((bottom | right | top | left) != rows[y])
            return PERIMETER;
        last[0][y] = bottom & ~right;
        last[1][y] = right & ~top;
        last[2][y] = top & ~left;
        last[3][y] = left & ~bottom;
        twice |= (last[0][y] & last[2][y]) | (last[1][y] & last[3][y]) | (bottom & right & top & left);
    }
    if (twice)
        return REVISIT;
    if (!length)
        return CURVES;
    uint64_t columns = 0;
    for (int32_t y = 0; y < h; y++)
        columns |= rows[y];
    int32_t x = __builtin_ctzll(columns), y = 0;
    while (!(rows[y] >> x & 1))
        y++;
    const int32_t x0 = x, y0 = y;
    int64_t area = 0; /* twice the signed area */
    for (int32_t t = 0; t < length; t++) {
        xy[2 * t] = x - 1;
        xy[2 * t + 1] = y - 1;
        int32_t side = 0;
        while (side < 4 && !(last[side][y] >> x & 1))
            side++;
        if (side == 4) /* off the contour, which the checks above rule out */
            return CURVES;
        /* a contour site lies inside the ring, so its diagonal cells lie in the frame */
        const uint64_t diagonal = side == 0 || side == 3 ? filled[y - 1] : filled[y + 1];
        const int32_t turn = 2 * side + (int32_t)(diagonal >> (side < 2 ? x + 1 : x - 1) & 1);
        const int32_t x1 = x + TURN_DX[turn], y1 = y + TURN_DY[turn];
        area += (int64_t)x * y1 - (int64_t)x1 * y;
        x = x1;
        y = y1;
        if ((x == x0 && y == y0) != (t == length - 1))
            return CURVES;
    }
    return area > 0 ? 0 : CLOCKWISE;
}

/* Classify the cycle of `length` sites xy around origin position (px, py) and count it in classes: 0, or the code of
 * the check it fails, where[0], where[1] and where[2] the step and the ray distance of a step that is no first step. */
static int classify(const int32_t *xy, int32_t length, int32_t px, int32_t py, int64_t *classes, int32_t *where)
{
    int32_t at = -1, wn = 0;
    for (int32_t t = 0; t < length; t++)
        if (xy[2 * t + 1] == py && xy[2 * t] > px && (at < 0 || xy[2 * t] < xy[2 * at]))
            at = t;
    if (at < 0)
        return NO_RAY;
    const int32_t l = xy[2 * at] - px, next = (at + 1) % length;
    const int32_t dx = xy[2 * next] - xy[2 * at], dy = xy[2 * next + 1] - py;
    const int32_t step = abs(dx) <= 1 && abs(dy) <= 1 ? FIRST_CLASS[dy + 1][dx + 1] : 0;
    if (!step) {
        where[0] = dx;
        where[1] = dy;
        where[2] = l;
        return FIRST_STEP;
    }
    for (int32_t s = length - 1, t = 0; t < length; s = t++)
        wn += crossing(xy[2 * s] - px, xy[2 * s + 1] - py, xy[2 * t] - px, xy[2 * t + 1] - py);
    if (wn != 1)
        return WINDING;
    classes[((int64_t)length * KEY_ROWS + l) * 5 + step]++;
    return 0;
}

/* The sites of contour j of the `height` rows keys. */
static int32_t key_length(const uint32_t *keys, int32_t height, int32_t j)
{
    int32_t length = 0;
    for (int32_t y = 0; y < height; y++)
        length += popcount(keys[(size_t)j * height + y]);
    return length;
}

/* Check, trace and classify the n contours of `height` rows keys around their origin positions covers: classes[(k *
 * KEY_ROWS + l) * 5 + i] counts the positions of class (k, l, i), k up to the longest contour, and cycles holds the
 * cycles, contour after contour, 2 ints a site.  Returns 0, or the code of the first check that fails, with where[0..2]
 * naming a pinched corner or a step that is no first step. */
int peierls_classes(int32_t n, int32_t height, const uint32_t *keys, const uint32_t *covers, int64_t *classes,
                    int32_t *cycles, int32_t *where)
{
    const uint64_t full = ((uint64_t)1 << (KEY_ROWS + 2)) - 1;
    for (size_t s = 0; s < (size_t)n * height; s++)
        if (keys[s] & covers[s])
            return ON_CONTOUR;
    int32_t *xy = cycles;
    for (int32_t j = 0; j < n; j++) {
        const int32_t length = key_length(keys, height, j);
        uint64_t rows[KEY_ROWS + 2] = {0};
        for (int32_t y = 0; y < height; y++)
            rows[y + 1] = (uint64_t)keys[(size_t)j * height + y] << 1;
        const int code = trace(rows, height + 2, full, length, xy, where);
        if (code)
            return code;
        xy += 2 * (size_t)length;
    }
    xy = cycles;
    for (int32_t j = 0; j < n; j++) {
        const int32_t length = key_length(keys, height, j);
        for (int32_t y = 0; y < height; y++)
            for (uint32_t bits = covers[(size_t)j * height + y]; bits; bits &= bits - 1) {
                const int code = classify(xy, length, __builtin_ctz(bits), y, classes, where);
                if (code)
                    return code;
            }
        xy += 2 * (size_t)length;
    }
    return 0;
}
