/* The one connectivity kernel of the Monte Carlo, and its one site hash: an invasion flood over hashed keys.
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
 * Build: cc -O2 -shared -fPIC -o sweep.so _sweep.c
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
 * bound, shift and bucket queue. */
#define BORDER(s, h, floor)                                                                                            \
    do {                                                                                                               \
        const int32_t key_ = key_of(h, bound, shift), level_ = key_ > (floor) ? key_ : (floor);                        \
        seen[s] = 1;                                                                                                   \
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
    uint8_t *seen = malloc((size_t)n);
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
        memset(seen, 0, (size_t)n);
        for (int32_t i = 0; i < nsources; i++) {
            const int32_t s = sources[i];
            if (!seen[s])
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
            if (!seen[s + 1])
                BORDER(s + 1, mix(hx[x + 1] + yt), cur);
            if (x && !seen[s - 1])
                BORDER(s - 1, mix(hx[x - 1] + yt), cur);
            if (y < side - 1 && !seen[s + side])
                BORDER(s + side, mix(hx[x] + yt + YSALT), cur);
            if (y && !seen[s - side])
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
