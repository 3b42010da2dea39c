/* Critical grid indices of coupled fields by one invasion flood per field.
 *
 * A field is a side x side grid of keys in [0, 2**m), row-major, and its site
 * is occupied at c = j / 2**m exactly when its key is below j.  The field's
 * critical index j* is the largest j at which it has no occupied left-right
 * crossing: the least, over the 4-connected paths from the left column to the
 * right one, of the largest key on the path.  Invasion percolation finds it
 * (Wilkinson and Willemsen, J. Phys. A 16, 3365 (1983)): a flood from the left
 * column takes, one at a time, a site of least key among those it borders, and
 * its level, the largest key it has taken, is j* when it first takes a site of
 * the right column.
 *
 * The border is a bucket queue: head[k] starts a list, linked through next,
 * of the bordering sites of level k.  A site first bordered at level cur is
 * filed at max(key, cur), since the level never falls, so the flood takes the
 * lowest bucket at or above cur.
 *
 * Build: cc -O2 -shared -fPIC -o sweep.so _sweep.c
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* j* of each of `fields` fields of side x side keys in [0, 2**m), 1 <= m <= 16,
 * written to out.  Returns 0, or -1 when the scratch cannot be allocated. */
int peierls_critical_indices(const uint16_t *keys, int64_t fields, int32_t side, int32_t m, int32_t *out)
{
    const int32_t n = side * side, grid = 1 << m;
    int32_t *head = malloc((size_t)grid * sizeof *head);
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
        memset(head, 0xff, (size_t)grid * sizeof *head); /* every list empty: -1 */
        memset(seen, 0, (size_t)n);
        for (int32_t s = 0; s < n; s += side) {
            seen[s] = 1;
            next[s] = head[key[s]];
            head[key[s]] = s;
        }
        int32_t cur = 0;
        for (;;) {
            while (head[cur] < 0)
                cur++;
            const int32_t s = head[cur], x = s % side;
            head[cur] = next[s];
            if (x == side - 1)
                break;
            /* the neighbours right, left, down and up; x < side - 1, so the
             * right one exists, and one off the grid is s itself, seen */
            const int32_t around[4] = {s + 1, x ? s - 1 : s, s + side < n ? s + side : s, s >= side ? s - side : s};
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
