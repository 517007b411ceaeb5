//! Fig 8/9-style intra-node search comparison on dense leaves: binary
//! search (the bit-for-bit paper path) vs SIMD, across sorted,
//! near-sorted, and fully random ingest, with per-config point-lookup
//! latency over the populated trees and machine-readable output.
//!
//! Grid: workloads {sorted (K=0), near-sorted (K=5%), random (K=100%)} ×
//! configs {dense-scalar, dense-simd}. Every cell reports ns/insert and
//! ns/lookup, and the matrix is written as hand-rolled JSON to
//! `results/layout.json`.
//!
//! `--check` turns the run into a self-asserting smoke test for CI: the
//! emitted document must pass the shared mini JSON validator, every cell
//! must have made progress with identical tree contents across configs,
//! dense + SIMD must win ns/insert on fully random ingest (where every
//! insert pays a full intra-node search), and the sorted / near-sorted
//! workloads must stay within [`NOISE_TOLERANCE`] of the dense-scalar
//! baseline (QuIT's poℓe already absorbs the in-order bulk there, so the
//! honest claim is "never slower", not "wins"). Under
//! `QUIT_FORCE_SCALAR=1` (the cross-arch guard: every `simd_*` probe
//! falls back to the portable branchless ladder) the win assertion
//! relaxes to a regression bound too — the scalar fallback must be
//! *safe* everywhere, not fast.

use bods::{point_lookup_keys, BodsSpec};
use quit_bench::{ingest_index, json_is_valid, print_table, time_point_lookups, Opts};
use quit_core::{simd_force_disabled, SearchKind, Variant};

/// Allowed ns/insert regression where the claim is "no slower than the
/// paper path": interleaved best-of-reps ratios on a shared 1-core runner
/// still swing by ±15%, while a real search regression (say, a kernel
/// falling back to a full-node scan) blows far past this.
const NOISE_TOLERANCE: f64 = 1.25;

/// Bound used when the run cannot make a perf claim at all — `--quick`
/// scales (cache-resident trees) and `QUIT_FORCE_SCALAR=1` (cross-arch
/// guard). Those runs only prove the code is *safe*; ±25% swings are
/// routine there, so only a blow-up should fail them.
const SMOKE_TOLERANCE: f64 = 1.5;

const CONFIGS: [(&str, SearchKind); 2] = [
    ("dense-scalar", SearchKind::Binary),
    ("dense-simd", SearchKind::Simd),
];

struct Cell {
    workload: &'static str,
    config: &'static str,
    insert_ns: f64,
    lookup_ns: f64,
    len: usize,
}

fn main() {
    let opts = Opts::from_args();
    let check = std::env::args().any(|a| a == "--check");
    let n = opts.n;
    let scalar_forced = simd_force_disabled();
    if scalar_forced {
        println!("QUIT_FORCE_SCALAR=1: SIMD probes fall back to the branchless scalar ladder");
    }

    // `near_sorted` is a genuine BoDS stream: 5% of entries out of place,
    // each displaced at most 1% of the stream (L bounds the lateness).
    // Unbounded L would turn every straggler into a cold random descend,
    // hiding the intra-node term this binary exists to measure.
    let workloads: [(&'static str, f64, f64); 3] = [
        ("sorted", 0.0, 1.0),
        ("near_sorted", 0.05, 0.01),
        ("random", 1.0, 1.0),
    ];
    let probes = point_lookup_keys(n, (n / 4).max(10_000), opts.seed ^ 7);

    let mut cells: Vec<Cell> = Vec::new();
    for (workload, k, l) in workloads {
        let keys = BodsSpec::new(n, k, l).with_seed(opts.seed).generate();
        // Round-robin the repetitions across configurations instead of
        // finishing one config before starting the next: slow machine
        // phases (frequency scaling, co-tenants) then hit every config
        // about equally, so best-of-reps *ratios* stay meaningful even
        // when absolute wall clock drifts between repetitions.
        let mut best = [f64::INFINITY; CONFIGS.len()];
        let mut trees: Vec<Option<quit_core::BpTree<u64, u64>>> =
            (0..CONFIGS.len()).map(|_| None).collect();
        for _rep in 0..opts.reps.max(1) {
            for (ci, &(_, kind)) in CONFIGS.iter().enumerate() {
                let tree_config = opts.tree_config().with_search_kind(kind);
                let run = ingest_index(
                    || Variant::Quit.build::<u64, u64>(tree_config.clone()),
                    &keys,
                    1,
                );
                if run.ns_per_insert < best[ci] {
                    best[ci] = run.ns_per_insert;
                }
                trees[ci] = Some(run.tree);
            }
        }
        for (ci, &(label, _)) in CONFIGS.iter().enumerate() {
            let mut tree = trees[ci].take().expect("populated above");
            let lookup_ns = time_point_lookups(&mut tree, &probes);
            cells.push(Cell {
                workload,
                config: label,
                insert_ns: best[ci],
                lookup_ns,
                len: tree.len(),
            });
        }
    }

    // Human-readable matrix.
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.workload.to_string(),
                c.config.to_string(),
                format!("{:.1}", c.insert_ns),
                format!("{:.1}", c.lookup_ns),
            ]
        })
        .collect();
    print_table(
        &format!("Dense leaves × search kind (N={n}, best of {})", opts.reps),
        &["workload", "layout", "ns/insert", "ns/lookup"],
        &rows,
    );
    let cell = |workload: &str, config: &str| -> &Cell {
        cells
            .iter()
            .find(|c| c.workload == workload && c.config == config)
            .expect("cell present")
    };
    for (workload, _, _) in workloads {
        let base = cell(workload, "dense-scalar").insert_ns;
        let simd = cell(workload, "dense-simd").insert_ns;
        println!(
            "{workload}: dense-simd / dense-scalar insert ratio {:.3}",
            simd / base
        );
    }

    // Machine-readable matrix.
    let mut out = format!(
        "{{\"n\":{n},\"reps\":{},\"scalar_forced\":{scalar_forced},\"rows\":[",
        opts.reps
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"workload\":\"{}\",\"layout\":\"{}\",\"insert_ns\":{:.2},\
             \"lookup_ns\":{:.2},\"len\":{}}}",
            c.workload, c.config, c.insert_ns, c.lookup_ns, c.len
        ));
    }
    out.push_str("]}");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/layout.json", &out).expect("write results/layout.json");
    println!("wrote results/layout.json ({} bytes)", out.len());

    if check {
        assert!(json_is_valid(&out), "emitted document must be valid JSON");
        for c in &cells {
            assert!(
                c.insert_ns > 0.0 && c.lookup_ns > 0.0 && c.len > 0,
                "cell {}/{} made no progress",
                c.workload,
                c.config
            );
        }
        for (workload, _, _) in workloads {
            assert_eq!(
                cell(workload, "dense-simd").len,
                cell(workload, "dense-scalar").len,
                "{workload}: dense-simd must hold the same keys as dense-scalar"
            );
        }
        for (workload, bound, label) in [
            // Sorted and near-sorted ingest mostly ride the poℓe fast path
            // (one key compare, no intra-node search), so the honest claim
            // there is "never slower than the paper path". Fully random
            // ingest searches every node on every insert, so SIMD must
            // beat dense-scalar outright.
            // Sorted ingest rides the poℓe append path at ~16 ns/insert,
            // so even at 2M keys the whole cell is ~30 ms of work — one
            // frequency-scaling transient swings the best-of-reps ratio by
            // ±30%. It gets the smoke bound; near-sorted (~4×) and random
            // (~30× longer) cells are stable enough for the tight bounds.
            ("sorted", SMOKE_TOLERANCE, "must not regress"),
            ("near_sorted", NOISE_TOLERANCE, "must not regress"),
            ("random", 1.02, "must win (2% measurement floor)"),
        ] {
            let base = cell(workload, "dense-scalar").insert_ns;
            let simd = cell(workload, "dense-simd").insert_ns;
            // The cross-arch guard only proves the scalar fallback is
            // safe, and below ~1M keys the whole tree is cache-resident —
            // the search savings the win assertion measures are smaller
            // than scheduler noise there.
            let bound = if scalar_forced || n < 1_000_000 {
                SMOKE_TOLERANCE.max(bound)
            } else {
                bound
            };
            assert!(
                simd < base * bound,
                "{workload}: dense-simd {label}: {simd:.1} ns vs dense-scalar {base:.1} ns \
                 (bound {bound})"
            );
        }
        println!(
            "check passed: JSON valid, configs agree on contents, \
             random dense-simd/dense-scalar ratio {:.3}",
            cell("random", "dense-simd").insert_ns / cell("random", "dense-scalar").insert_ns
        );
    }
}
