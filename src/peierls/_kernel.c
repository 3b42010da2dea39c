/* The package's compiled kernel, four entry points built into one library (peierls/kernel.py):
 *
 * - peierls_flood, the one connectivity kernel of the Monte Carlo and its one site hash: an invasion flood over
 *   hashed keys;
 * - peierls_walk, the census's circuit walk: every restricted self-avoiding circuit of every start in one walk;
 * - peierls_shapes, one part of the span-pruned shape tree of the census and the event table, with each shape's
 *   contour, and peierls_free for the records it hands back;
 * - peierls_classes, the census's class pass: every distinct contour checked and traced, and classified around each of
 *   its origin positions.
 *
 * Build: cc -O2 -shared -fPIC -o kernel.so _kernel.c
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
 * Every site of the right column must be a target: the flood stops on a target, so a site it steps from always
 * has a right neighbour.
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

/* File site s, of hash h, on the border of the flood at level max(its key, floor): a step of peierls_flood, on its
 * bound, shift, stamp and bucket queue. */
#define BORDER(s, h, floor)                                                                                            \
    do {                                                                                                               \
        const int32_t key_ = key_of(h, bound, shift), level_ = key_ > (floor) ? key_ : (floor);                        \
        seen[s] = stamp;                                                                                               \
        next[s] = head[level_];                                                                                        \
        head[level_] = (s);                                                                                            \
    } while (0)

/* The result of each of the `fields` trials t0, t0 + 1, ... (mod 2**64) of run seed on the radius-L window, at
 * 1 <= m <= 16, from the `nsources` sites `sources` (indices into the window) to the sites s with target[s]
 * nonzero, written to out; 2**m - 1 with no source.  Returns 0, or -1 when the scratch cannot be allocated. */
int peierls_flood(uint64_t seed, uint64_t t0, int64_t fields, int32_t L, uint64_t bound, int32_t m,
                  const int32_t *sources, int32_t nsources, const uint8_t *target, int32_t *out)
{
    const int32_t side = 2 * L + 1, n = side * side, top = (1 << m) - 1, shift = 64 - m;
    int32_t *head = malloc(((size_t)top + 1) * sizeof *head);
    int32_t *next = malloc((size_t)n * sizeof *next);
    uint8_t *seen = calloc((size_t)n, 1), stamp = 0;
    uint64_t *hx = malloc((size_t)side * sizeof *hx);
    if (!head || !next || !seen || !hx) {
        free(head);
        free(next);
        free(seen);
        free(hx);
        return -1;
    }
    for (int64_t f = 0; f < fields; f++) {
        const uint64_t h0 = mix(mix(seed ^ (t0 + (uint64_t)f) * TRIALSALT) ^ GOLDEN);
        for (int32_t x = 0; x < side; x++)
            hx[x] = mix(h0 + (uint64_t)(x - L) * XSALT);
        memset(head, 0xff, (size_t)top * sizeof *head); /* every list below the top empty: -1 */
        head[top] = 0;
        if (!++stamp) { /* past 255: no site bordered by an earlier field may carry the new stamp */
            memset(seen, 0, (size_t)n);
            stamp = 1;
        }
        for (int32_t i = 0; i < nsources; i++) {
            const int32_t s = sources[i];
            if (seen[s] != stamp)
                BORDER(s, mix(hx[s % side] + (uint64_t)(s / side - L) * YSALT), 0);
        }
        int32_t cur = 0;
        for (;;) {
            while (head[cur] < 0)
                cur++;
            if (cur == top)
                break;
            const int32_t s = head[cur];
            head[cur] = next[s];
            if (target[s])
                break;
            /* the neighbours right, left, down and up, hashed by column and row term yt = y * YSALT; s, being no
             * target, is not on the right column */
            const int32_t x = s % side, y = s / side;
            const uint64_t yt = (uint64_t)(y - L) * YSALT;
            if (seen[s + 1] != stamp)
                BORDER(s + 1, mix(hx[x + 1] + yt), cur);
            if (x && seen[s - 1] != stamp)
                BORDER(s - 1, mix(hx[x - 1] + yt), cur);
            if (y < side - 1 && seen[s + side] != stamp)
                BORDER(s + side, mix(hx[x] + yt + YSALT), cur);
            if (y && seen[s - side] != stamp)
                BORDER(s - side, mix(hx[x] + yt - YSALT), cur);
        }
        out[f] = cur;
    }
    free(head);
    free(next);
    free(seen);
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
 * to the node count; the first steps, from the start, are not counted.  The walk stops as soon as the count passes
 * max_nodes.
 *
 * The subtree of the first step SE is the mirror image of NE's in y -> -y.  The turn rules, the distance pruning, the
 * window, the start and the ray sites (-j, 0) are all symmetric under that reflection, so it maps NE's walks one to one
 * onto SE's, each with the same hit and so the same nodes.  A reflected closed walk winds around each origin by the
 * negated sum, so it closes for the same starts.  So the walk takes NE's subtree first, then adds its node count and
 * its walks[d] a second time and appends its records reflected, checking the node count against max_nodes after that
 * addition, and then takes E, N and NW.  Since the count only grows, the walk passes max_nodes exactly when the walk
 * of all five subtrees would.
 *
 * A walk of d >= 4 sites next to its start closes for each of its starts it winds around: start l's winding sum
 * is the sum of the crossing terms around (-l, 0) of its steps, the closing one included.  It counts once for each
 * such start in walks[d], and it is recorded as its length, its site mask and one bit for each such start.  At the
 * end the records go into a hash set keyed by (length, mask), which ORs the start bits of equal keys.  A start's
 * distinct circuits of length d are its distinct site sets, so distinct[d] sums, over the distinct (length, mask)
 * pairs, the starts in the union of their bits.
 */

/* The king steps, counter-clockwise from east (lattice.NEIGHBOR_OFFSETS_8). */
static const int32_t DX[8] = {1, 1, 0, -1, -1, -1, 0, 1}, DY[8] = {0, 1, 1, 1, 0, -1, -1, -1};

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

/* A walk in progress: its limits, its sites, its winding sums, its node count and its closed-walk records. */
struct walk {
    int32_t k_max, turns, starts, radius, side, width;
    int64_t max_nodes, nodes;
    uint64_t *seen; /* the walk's sites, its start and (-1, 0): a bit a site of the window, row by row */
    int32_t *wind;  /* wind[d * starts + l - 1]: the winding sum around (-l, 0) of the walk's first d sites */
    uint64_t *rec;  /* width + 2 words a record: the length, the site mask and the start bits */
    size_t nrec, maxrec;
    int64_t *walks;
};

/* One more record at the end of the walk's records, to be filled in; NULL when the records cannot grow. */
static uint64_t *new_record(struct walk *w)
{
    const size_t stride = (size_t)w->width + 2;
    if (w->nrec == w->maxrec) {
        if (w->maxrec >> 31) /* the hash set's uint32_t slots name at most 2**32 - 1 records */
            return NULL;
        uint64_t *grown = realloc(w->rec, 2 * w->maxrec * stride * sizeof *grown);
        if (!grown)
            return NULL;
        w->rec = grown;
        w->maxrec *= 2;
    }
    return w->rec + w->nrec++ * stride;
}

/* Record the walk of `length` sites, closed for the starts of `bits`; -1 when the records cannot grow. */
static int record(struct walk *w, int32_t length, uint64_t bits)
{
    uint64_t *r = new_record(w);
    if (!r)
        return -1;
    r[0] = (uint64_t)length;
    memcpy(r + 1, w->seen, (size_t)w->width * sizeof *r);
    r[w->width + 1] = bits;
    return 0;
}

/* Take every step from the walk of `depth` sites at (u, v), entered in direction d, whose least ray site (-j, 0),
 * j >= 2, is `hit`, and walk on: 0; 1 once the nodes pass max_nodes; -1 when the records cannot grow. */
static int extend(struct walk *w, int32_t u, int32_t v, int32_t d, int32_t depth, int32_t hit)
{
    const int32_t *wind = w->wind + (size_t)depth * w->starts;
    int32_t *next = w->wind + (size_t)(depth + 1) * w->starts;
    for (int32_t t = -w->turns; t <= w->turns; t++) {
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
        w->nodes += hit1 - 1;
        if (w->nodes > w->max_nodes)
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
            w->walks[depth + 1] += popcount(bits);
            if (bits && record(w, depth + 1, bits))
                return -1;
        }
        if (depth + 1 < w->k_max) {
            const int code = extend(w, u1, v1, d1, depth + 1, hit1);
            if (code)
                return code;
        }
        w->seen[s >> 6] &= ~bit;
    }
    return 0;
}

/* Walk the subtree of the first step d from the start: 0, 1 or -1 as extend. */
static int subtree(struct walk *w, int32_t d)
{
    const int32_t s = (DY[d] + w->radius) * w->side + DX[d] + w->radius;
    for (int32_t l = 1; l <= w->starts; l++)
        w->wind[2 * w->starts + l - 1] = crossing(l, 0, l + DX[d], DY[d]);
    w->seen[s >> 6] |= (uint64_t)1 << (s & 63);
    const int code = extend(w, DX[d], DY[d], d, 2, w->starts + 1);
    w->seen[s >> 6] &= ~((uint64_t)1 << (s & 63));
    return code;
}

/* Add the subtree of SE to a walk that has taken NE's alone, as NE's reflection in y -> -y: its node count and walks[d]
 * a second time, and its records with their site masks reflected.  0; 1 once the nodes pass max_nodes; -1 when the
 * records cannot grow. */
static int mirror(struct walk *w)
{
    const size_t stride = (size_t)w->width + 2, n = w->nrec;
    if (w->nodes > w->max_nodes - w->nodes)
        return 1;
    w->nodes *= 2;
    for (int32_t d = 0; d <= w->k_max; d++)
        w->walks[d] *= 2;
    for (size_t i = 0; i < n; i++) {
        uint64_t *r = new_record(w);
        if (!r)
            return -1;
        const uint64_t *q = w->rec + i * stride; /* after new_record, which may move the records */
        r[0] = q[0];
        memset(r + 1, 0, (size_t)w->width * sizeof *r);
        r[w->width + 1] = q[w->width + 1];
        /* site s of row y of the window to the same column of row side - 1 - y */
        for (int32_t j = 0; j < w->width; j++)
            for (uint64_t bits = q[j + 1]; bits; bits &= bits - 1) {
                const int32_t s = j * 64 + __builtin_ctzll(bits), t = s + (w->side - 1 - 2 * (s / w->side)) * w->side;
                r[(t >> 6) + 1] |= (uint64_t)1 << (t & 63);
            }
    }
    return 0;
}

/* Add to distinct[d], for each distinct key (length d, mask) of the walk's records, the starts in the union of their
 * bits.  The keys go into an open-addressing hash set of record indices, of a power-of-two size at least twice the
 * records, probed linearly from the mix of the key; a record whose key the set holds ORs its bits into the holder's.
 * Returns 0, or -1 when the set cannot be allocated. */
static int count_distinct(struct walk *w, int64_t *distinct)
{
    const size_t stride = (size_t)w->width + 2, keyed = stride - 1; /* the length and the mask, then the bits */
    size_t size = 1;
    while (size < 2 * w->nrec)
        size *= 2;
    uint32_t *slot = malloc(size * sizeof *slot);
    if (!slot)
        return -1;
    memset(slot, 0xff, size * sizeof *slot); /* every slot empty: UINT32_MAX */
    for (size_t i = 0; i < w->nrec; i++) {
        const uint64_t *r = w->rec + i * stride;
        uint64_t h = 0;
        for (size_t j = 0; j < keyed; j++)
            h = mix(h ^ r[j]);
        size_t s = h & (size - 1);
        while (slot[s] != UINT32_MAX && memcmp(w->rec + slot[s] * stride, r, keyed * sizeof *r))
            s = (s + 1) & (size - 1);
        if (slot[s] == UINT32_MAX)
            slot[s] = (uint32_t)i;
        else
            w->rec[slot[s] * stride + keyed] |= r[keyed];
    }
    for (size_t s = 0; s < size; s++)
        if (slot[s] != UINT32_MAX) {
            const uint64_t *r = w->rec + slot[s] * stride;
            distinct[r[0]] += popcount(r[keyed]);
        }
    free(slot);
    return 0;
}

/* Set up the walk of the restricted circuits of lengths up to k_max of every start that turn by at most `turns` eighths a
 * step, counting its closed walks in walks, zeroed, with its start and (-1, 0) seen: 0, or -1 when the scratch cannot
 * be allocated.  close_walk releases the scratch either way. */
static int open_walk(struct walk *w, int32_t k_max, int32_t turns, int64_t max_nodes, int64_t *walks)
{
    *w = (struct walk){.k_max = k_max, .turns = turns, .starts = (k_max - 2) / 2, .radius = k_max / 2,
                       .side = k_max / 2 * 2 + 1, .max_nodes = max_nodes, .maxrec = 1024, .walks = walks};
    w->width = (w->side * w->side + 63) / 64;
    const size_t stride = (size_t)w->width + 2, origin = (size_t)w->radius * w->side + w->radius;
    w->seen = calloc((size_t)w->width, sizeof *w->seen);
    w->wind = malloc((size_t)(k_max + 1) * w->starts * sizeof *w->wind);
    w->rec = malloc(w->maxrec * stride * sizeof *w->rec);
    memset(walks, 0, (size_t)(k_max + 1) * sizeof *walks);
    if (!w->seen || !w->wind || !w->rec)
        return -1;
    /* the start and (-1, 0), the ray site every start avoids */
    w->seen[origin >> 6] |= (uint64_t)1 << (origin & 63);
    w->seen[(origin - 1) >> 6] |= (uint64_t)1 << ((origin - 1) & 63);
    return 0;
}

static void close_walk(struct walk *w)
{
    free(w->seen);
    free(w->wind);
    free(w->rec);
}

/* Walk the restricted circuits of lengths up to k_max of every start, 4 <= k_max and (k_max - 2) / 2 <= 64, that
 * turn by at most `turns` eighths a step: walks[k] and distinct[k], for k <= k_max, the circuits of length k and
 * their distinct site sets, summed over the starts, and *nodes the steps taken.  Returns 0; 1, the walk cut short,
 * once the steps pass max_nodes; -1 when the scratch cannot be allocated. */
int peierls_walk(int32_t k_max, int32_t turns, int64_t max_nodes, int64_t *walks, int64_t *distinct, int64_t *nodes)
{
    static const int32_t REST[3] = {0, 2, 3}; /* E, N and NW, after NE and its mirror image SE */
    struct walk w;
    memset(distinct, 0, (size_t)(k_max + 1) * sizeof *distinct);
    int code = open_walk(&w, k_max, turns, max_nodes, walks);
    if (!code)
        code = subtree(&w, 1);
    if (!code)
        code = mirror(&w);
    for (int32_t i = 0; i < 3 && !code; i++)
        code = subtree(&w, REST[i]);
    *nodes = w.nodes;
    if (!code)
        code = count_distinct(&w, distinct);
    close_walk(&w);
    return code;
}

/* THE SHAPE TREE
 *
 * Redelmeier's tree of the fixed polyominoes of up to cap cells (Redelmeier, Discrete Math. 36 (1981) 191-203), grown
 * depth-first and cut down by the span lemma.  A shape is anchored at its lowest, leftmost cell, the origin, so its
 * cells lie in the half plane y > 0 or (y = 0 and x >= 0).  A shape wider or taller than box = min((max_len - 2) / 2,
 * cap) has a contour of more than max_len sites, and so has every shape below it, being at least as wide: it is
 * dropped with its subtree.  So the shapes grown lie in |x| < box, 0 <= y < box, and their neighbours in |x| <= box,
 * 0 <= y <= box.  Site (x, y) there is bit y * (2 * box + 1) + x of a site mask: the bits >= 0 are the half plane, in
 * (y, x) order.
 *
 * A shape carries its untried sites.  Its children take them lowest first, and the child that takes site i keeps the
 * untried sites above i and adds those of i's axis neighbours that no shape on the path to it has seen, so the tree
 * meets every fixed shape once.
 *
 * Part `part` of `parts`: every part grows the shapes below the split size SPLIT, and the j-th shape of the split
 * size met in depth-first order, j = 0, 1, ..., in span or not, goes with its subtree to part j mod parts.  Part 0
 * alone keeps the shapes below the split size.  One part is the whole tree.
 *
 * Each shape built sits in a square frame of box + 4 rows of box + 4 bits, cell (x, y) at bit x - xmin + 2 of row
 * y + 2: padded by 2, so that its boundary stays off the frame's edge and the edge lies in its exterior.  Its boundary
 * (the free axis neighbours of its cells), its exterior (the free sites an axis path over free sites joins to the
 * frame's edge) and its contour (the boundary sites with an axis neighbour in the exterior) are the steps of
 * clusters._contour, on 64-bit rows.  A shape whose contour has at most max_len sites is kept as a record of
 * 2 * (box + 4) + 3 words: its cell rows, its contour rows, and its cell, boundary and exterior counts.
 *
 * These steps run over the shape's own rows only, 0 .. ymax + 4 for a shape whose top cell row is ymax: the rows above
 * hold no cell and no boundary site, so they are wholly exterior, joined to the edge through row ymax + 4, and each adds
 * box + 4 sites to the exterior count.  The contour is counted no further once it passes max_len.
 */

#define SPLIT 6    /* the split size, enumeration._SPLIT_SIZE */
#define MAX_CAP 30 /* the largest cap, enumeration._MAX_SHAPE */
#define MAX_ROWS (MAX_CAP + 4) /* the rows of the largest frame */

/* A part of the tree in progress: its limits, the path's seen and untried sites, the shape and the kept records. */
struct tree {
    int32_t max_len, cap, part, parts, box, side, height, words;
    int64_t split, built; /* the split-size shapes met, and the shapes built */
    uint64_t full;        /* the bits of a frame row */
    uint64_t *seen;       /* the sites seen on the path */
    uint64_t *untried;    /* untried[size * words ...]: the untried sites of the path's shape of `size` cells */
    uint64_t cells[MAX_CAP]; /* row y of the shape, cell (x, y) at bit x + box */
    uint64_t *rec;
    size_t nrec, maxrec;
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
    for (int grown = 1; grown; grown = sweep(ext, vacant, rows))
        if (contour_length(bnd, ext, contour, rows, t->max_len) > t->max_len)
            return 0;
    const size_t stride = 2 * (size_t)h + 3;
    if (t->nrec == t->maxrec) {
        uint64_t *grown = realloc(t->rec, 2 * t->maxrec * stride * sizeof *grown);
        if (!grown)
            return -1;
        t->rec = grown;
        t->maxrec *= 2;
    }
    uint64_t *r = t->rec + t->nrec++ * stride;
    memcpy(r, cells, (size_t)rows * sizeof *r);
    memset(r + rows, 0, (size_t)(h - rows) * sizeof *r);
    memcpy(r + h, contour, (size_t)rows * sizeof *r);
    memset(r + h + rows, 0, (size_t)(h - rows) * sizeof *r);
    r[2 * h] = (uint64_t)size;
    r[2 * h + 1] = 0;
    r[2 * h + 2] = (uint64_t)(h - rows) * (uint64_t)h;
    for (int32_t y = 0; y < rows; y++) {
        r[2 * h + 1] += (uint64_t)popcount(bnd[y]);
        r[2 * h + 2] += (uint64_t)popcount(ext[y]);
    }
    return 0;
}

/* Grow the children of the path's shape of `size` cells, in columns xmin..xmax and rows 0..ymax, and their subtrees:
 * 0, or -1 when the records cannot grow. */
static int grow(struct tree *t, int32_t size, int32_t xmin, int32_t xmax, int32_t ymax)
{
    uint64_t *untried = t->untried + (size_t)size * t->words, *next = untried + t->words;
    for (int32_t w = 0; w < t->words; w++)
        while (untried[w]) {
            /* the lowest untried site: the children after this one keep the sites above it only */
            const int32_t i = w * 64 + __builtin_ctzll(untried[w]);
            untried[w] &= untried[w] - 1;
            const int32_t y = (i + t->box) / t->side, x = i - y * t->side;
            const int32_t x0 = x < xmin ? x : xmin, x1 = x > xmax ? x : xmax, y1 = y > ymax ? y : ymax;
            if (size + 1 == SPLIT && t->parts > 1 && t->split++ % t->parts != t->part)
                continue;
            if (x1 - x0 >= t->box || y1 >= t->box)
                continue;
            const uint64_t cell = (uint64_t)1 << (x + t->box);
            t->cells[y] |= cell;
            if ((size + 1 >= SPLIT || t->part == 0) && shape(t, size + 1, x0, y1))
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
                const int code = grow(t, size + 1, x0, x1, y1);
                for (int32_t k = 0; k < n; k++)
                    t->seen[added[k] >> 6] &= ~((uint64_t)1 << (added[k] & 63));
                if (code)
                    return code;
            }
            t->cells[y] &= ~cell;
        }
    return 0;
}

/* Grow part `part` of `parts` of the span-pruned tree of shapes of up to cap cells, 4 <= max_len, 1 <= cap <= 30 and
 * 0 <= part < parts, and keep the shapes whose contour has at most max_len sites: *records the kept records, *kept
 * their number and *built the shapes built.  Returns 0, *records to be released with peierls_free; -1 when the
 * scratch or the records cannot be allocated, *records NULL. */
int peierls_shapes(int32_t max_len, int32_t cap, int32_t part, int32_t parts, uint64_t **records, int64_t *kept,
                   int64_t *built)
{
    const int32_t span = (max_len - 2) / 2, box = span < cap ? span : cap;
    struct tree t = {.max_len = max_len, .cap = cap, .part = part, .parts = parts, .box = box, .side = 2 * box + 1,
                     .height = box + 4, .maxrec = 256};
    t.words = (box * t.side + box + 64) / 64; /* the sites up to (box, box) */
    t.full = ((uint64_t)1 << t.height) - 1;
    t.seen = calloc((size_t)t.words, sizeof *t.seen);
    t.untried = calloc((size_t)(cap + 1) * t.words, sizeof *t.untried);
    t.rec = malloc(t.maxrec * (2 * (size_t)t.height + 3) * sizeof *t.rec);
    int code = -1;
    if (t.seen && t.untried && t.rec) {
        t.seen[0] = t.untried[0] = 1; /* the origin */
        code = grow(&t, 0, 0, 0, 0);
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
void peierls_free(uint64_t *records)
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
