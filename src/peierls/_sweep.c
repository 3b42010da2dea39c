/* Critical grid indices of coupled fields by one Newman-Ziff sweep per field.
 *
 * A field is a side x side grid of keys in [0, 2**m), row-major, and its site
 * is occupied at c = j / 2**m exactly when its key is below j.  The field's
 * critical index j* is the largest j at which it has no occupied left-right
 * crossing.  The sweep adds the sites one key level at a time, in the order of
 * a counting sort of the keys, unites each with its occupied 4-neighbours, and
 * unites the sites of the left and right columns with two virtual nodes.  After
 * level k the occupied sites are those with key <= k, the field at
 * c = (k + 1) / 2**m, so j* is the first level after which the two virtual
 * nodes share a root (Newman and Ziff, PRL 85, 4104 (2000)).
 *
 * Union-find as in Newman and Ziff: parent[i] is the parent of node i, or
 * minus the size of its cluster when i is a root, or VACANT before the site is
 * added.  Union by size, and path splitting: find points each node it passes
 * at its grandparent.
 *
 * Build: cc -O2 -shared -fPIC -o sweep.so _sweep.c
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define VACANT INT32_MIN

static int32_t find(int32_t *parent, int32_t i)
{
    while (parent[i] >= 0) {
        int32_t p = parent[i];
        if (parent[p] >= 0)
            parent[i] = parent[p];
        i = p;
    }
    return i;
}

static void unite(int32_t *parent, int32_t a, int32_t b)
{
    a = find(parent, a);
    b = find(parent, b);
    if (a == b)
        return;
    if (parent[a] > parent[b]) { /* a's cluster is the smaller one */
        int32_t t = a;
        a = b;
        b = t;
    }
    parent[a] += parent[b];
    parent[b] = a;
}

/* j* of each of `fields` fields of side x side keys in [0, 2**m), 1 <= m <= 16,
 * written to out.  Returns 0, or -1 when the scratch cannot be allocated.
 *
 * The forest is the field framed by one more column on each side and one more
 * row above and below, (side + 2)**2 nodes, plus the two column nodes.  The
 * frame's rows stay vacant; the cells of its left column are children of the
 * left node and those of its right column of the right node, so a site of an
 * edge column joins its column node through the ordinary neighbour step. */
int peierls_critical_indices(const uint16_t *keys, int64_t fields, int32_t side, int32_t m, int32_t *out)
{
    const int32_t n = side * side, grid = 1 << m, width = side + 2, nodes = width * width;
    const int32_t left = nodes, right = nodes + 1;
    int32_t *start = malloc(((size_t)grid + 1) * sizeof *start);
    int32_t *order = malloc((size_t)n * sizeof *order);
    int32_t *parent = malloc(((size_t)nodes + 2) * sizeof *parent);
    if (!start || !order || !parent) {
        free(start);
        free(order);
        free(parent);
        return -1;
    }
    for (int64_t f = 0; f < fields; f++) {
        const uint16_t *key = keys + f * n;
        /* counting sort: the framed nodes of level j are order[start[j]..start[j+1]) */
        memset(start, 0, ((size_t)grid + 1) * sizeof *start);
        for (int32_t s = 0; s < n; s++)
            start[key[s] + 1]++;
        for (int32_t j = 0; j < grid; j++)
            start[j + 1] += start[j];
        for (int32_t y = 0, s = 0; y < side; y++)
            for (int32_t x = 0, p = (y + 1) * width + 1; x < side; x++, s++, p++)
                order[start[key[s]]++] = p;
        /* start[j] is now the end of level j */
        for (int32_t p = 0; p < nodes; p++)
            parent[p] = VACANT;
        for (int32_t y = 1; y <= side; y++) {
            parent[y * width] = left;
            parent[y * width + side + 1] = right;
        }
        parent[left] = parent[right] = -1;
        int32_t j = 0, r = 0;
        for (;; j++) {
            for (; r < start[j]; r++) {
                const int32_t p = order[r];
                parent[p] = -1;
                if (parent[p - 1] != VACANT)
                    unite(parent, p, p - 1);
                if (parent[p + 1] != VACANT)
                    unite(parent, p, p + 1);
                if (parent[p - width] != VACANT)
                    unite(parent, p, p - width);
                if (parent[p + width] != VACANT)
                    unite(parent, p, p + width);
            }
            /* every site is in by the last level, and the full field crosses */
            if (j == grid - 1 || find(parent, left) == find(parent, right))
                break;
        }
        out[f] = j;
    }
    free(start);
    free(order);
    free(parent);
    return 0;
}
