# How far can the auto-tuned spectral back-end be pushed before it loses
# the planted speaker count? Sweeps k and the within-speaker noise level
# and reports POC / mean |k_hat - k| per cell. Every session also runs
# through `spectral_cluster`, the path that diarization uses; the sweep
# fails if its bounded scan picks another (p_hat, k_hat) than the
# exhaustive scan, or if its labels differ from the reference chain
# kmeans(eig_sym(laplacian(binarize_symmetrize(a, p_hat)))) at the same
# seed. A second table gives the share of candidate p the scan visited.

import argparse
import sys
import time

import numpy as np

from deskdiar.clustering import (binarize_symmetrize, cosine_affinity,
                                 eig_sym, kmeans, laplacian, nme_select,
                                 spectral_cluster)


def planted_session(k, std, seed, n=80, dim=16, min_deg=25.0):
    """Noisy rows around k unit means at least min_deg apart."""
    rng = np.random.default_rng([k, int(std * 1000), seed])
    cos_cap = np.cos(np.radians(min_deg))
    while True:
        means = rng.standard_normal((k, dim))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        gram = means @ means.T
        np.fill_diagonal(gram, -1.0)
        if gram.max() <= cos_cap:
            break
    labels = np.arange(n) % k
    return means[labels] + std * rng.standard_normal((n, dim))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sessions", type=int, default=100,
                    help="sessions per (k, std) cell")
    ap.add_argument("--dim", type=int, default=16)
    ap.add_argument("--rows", type=int, default=80,
                    help="segments per session")
    ap.add_argument("--k-max", type=int, default=7)
    ap.add_argument("--stds", type=float, nargs="+",
                    default=[0.08, 0.20, 0.35, 0.50])
    args = ap.parse_args()

    t0 = time.perf_counter()
    ks = list(range(2, args.k_max + 1))
    print(f"{args.sessions} sessions per cell, dim={args.dim}, "
          f"rows={args.rows}")
    header = "std   " + "  ".join(f"   k={k}     " for k in ks)
    print(header)
    print("-" * len(header))
    shares = []
    mismatches = []
    for std in args.stds:
        cells, share_row = [], []
        for k in ks:
            hats, scanned = [], []
            for seed in range(args.sessions):
                x = planted_session(k, std, seed, n=args.rows, dim=args.dim)
                a = cosine_affinity(x)
                asg, bounded = spectral_cluster(x, seed=seed)
                full = nme_select(a)
                cell = f"k={k} std={std} seed={seed}"
                if (bounded.p_hat, bounded.k_hat) != (full.p_hat, full.k_hat):
                    mismatches.append(
                        f"{cell}: bounded ({bounded.p_hat}, "
                        f"{bounded.k_hat}), full ({full.p_hat}, "
                        f"{full.k_hat})")
                _, vec = eig_sym(laplacian(binarize_symmetrize(
                    a, bounded.p_hat)))
                ref = kmeans(vec[:, :bounded.k_hat], bounded.k_hat,
                             seed=seed)
                if not np.array_equal(asg.labels, ref.labels):
                    mismatches.append(f"{cell}: labels differ from the "
                                      f"reference partition")
                hats.append(full.k_hat)
                scanned.append(len(bounded.trace) / len(full.trace))
            hats = np.array(hats)
            poc = 100.0 * float(np.mean(hats == k))
            mad = float(np.mean(np.abs(hats - k)))
            cells.append(f"{poc:4.0f}%/{mad:.2f}")
            share_row.append(100.0 * float(np.mean(scanned)))
        print(f"{std:.2f}  " + "  ".join(f"{c:>10}" for c in cells))
        shares.append(share_row)
    print("cells are POC / mean |k_hat - k|")
    print()
    print("share of candidate p the bounded scan visited, mean per cell")
    print(header)
    print("-" * len(header))
    for std, row in zip(args.stds, shares):
        print(f"{std:.2f}  " + "  ".join(f"{share:>9.1f}%" for share in row))
    print(f"{time.perf_counter() - t0:.0f}s total")
    if mismatches:
        print("\n".join(["spectral_cluster departs from the reference:"]
                        + mismatches), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
