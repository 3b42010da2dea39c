/* The one connectivity kernel of the Monte Carlo: an invasion flood over keys.
 *
 * A field is a rows x cols grid of keys in [0, 2**m), row-major, and its site
 * is occupied at c = j / 2**m exactly when its key is below j.  The flood's
 * result is the least, over the 4-connected paths from a source site to a
 * target site, of the largest key on the path, so the sources and targets are
 * joined by an occupied path at j exactly when j exceeds it.  From the left
 * column to the right one it is the field's critical index j*; on keys 0
 * (occupied) and 1 (vacant) at m = 1 it is 0 exactly when the sources reach a
 * target.  Invasion percolation finds it (Wilkinson and Willemsen, J. Phys. A
 * 16, 3365 (1983)): a flood from the sources takes, one at a time, a site of
 * least key among those it borders, and its level, the largest key it has
 * taken, is the result when it first takes a target.  It stops once its level
 * is 2**m - 1, which no result can exceed, so a flood at m = 1 ends when the
 * occupied sites joined to the sources run out.
 *
 * Every site of the right column must be a target: the flood stops on a
 * target, so a site it steps from always has a right neighbour.
 *
 * The border is a bucket queue: head[k] starts a list, linked through next,
 * of the bordering sites of level k.  A site first bordered at level cur is
 * filed at max(key, cur), since the level never falls, so the flood takes the
 * lowest bucket at or above cur.  The top bucket is never taken from; its
 * head, never negative, ends the search.  There is a bucket for every 16-bit
 * key, so a key above 2**m - 1 is filed where the flood never looks, as if it
 * were 2**m - 1, and no key can index past the buckets.
 *
 * Build: cc -O2 -shared -fPIC -o sweep.so _sweep.c
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The result of each of `fields` fields of rows x cols 16-bit keys, 1 <= m <= 16, from the `nsources` sites `sources` (indices into a field) to
 * the sites s with target[s] nonzero, written to out; 2**m - 1 with no source.
 * Returns 0, or -1 when the scratch cannot be allocated. */
int peierls_flood(const uint16_t *keys, int64_t fields, int32_t rows, int32_t cols, int32_t m,
                  const int32_t *sources, int32_t nsources, const uint8_t *target, int32_t *out)
{
    const int32_t n = rows * cols, top = (1 << m) - 1;
    int32_t *head = malloc(((size_t)UINT16_MAX + 1) * sizeof *head);
    int32_t *next = malloc((size_t)n * sizeof *next);
    uint8_t *seen = malloc((size_t)n);
    if (!head || !next || !seen) {
        free(head);
        free(next);
        free(seen);
        return -1;
    }
    for (int64_t f = 0; f < fields; f++) {
        const uint16_t *key = keys + f * n;
        memset(head, 0xff, (size_t)top * sizeof *head); /* every list below the top empty: -1 */
        head[top] = 0;
        memset(seen, 0, (size_t)n);
        for (int32_t i = 0; i < nsources; i++) {
            const int32_t s = sources[i];
            if (!seen[s]) {
                seen[s] = 1;
                next[s] = head[key[s]];
                head[key[s]] = s;
            }
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
            /* the neighbours right, left, down and up; one off the grid is s itself, seen */
            const int32_t x = s % cols;
            const int32_t around[4] = {s + 1, x ? s - 1 : s, s + cols < n ? s + cols : s, s >= cols ? s - cols : s};
            for (int i = 0; i < 4; i++) {
                const int32_t t = around[i];
                if (!seen[t]) {
                    const int32_t level = key[t] > cur ? key[t] : cur;
                    seen[t] = 1;
                    next[t] = head[level];
                    head[level] = t;
                }
            }
        }
        out[f] = cur;
    }
    free(head);
    free(next);
    free(seen);
    return 0;
}
