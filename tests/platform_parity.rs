//! Platform parity: the paper's methodological requirement that "all
//! experiments are implemented using the same code for both FAASM and
//! Knative" (§6.1). These tests run identical workload code on both
//! platforms and require identical *answers* with the documented
//! *cost* differences (sharing vs. shipping).

use std::sync::Arc;

use faasm::baseline::{BaselineConfig, BaselinePlatform, Container, HttpRouter, ImageConfig};
use faasm::core::{
    faaslet_linker, CallId, CallResult, CallStatus, CgroupCpu, Cluster, ClusterConfig, Faaslet,
    FaasletEnv, FunctionDef, GuestCode, InstanceConfig, NoChain,
};
use faasm::fvm::ObjectModule;
use faasm::kvs::{KvClient, KvStore};
use faasm::state::StateManager;
use faasm::vfs::{HostFs, ObjectStore};
use faasm::workloads::data::{rcv1_like, synth_images};
use faasm::workloads::{inference, matmul, sgd};

fn small_platform(hosts: usize) -> BaselinePlatform {
    BaselinePlatform::with_config(BaselineConfig {
        hosts,
        image: ImageConfig {
            image_bytes: 256 * 1024,
            layers: 3,
            boot_passes: 2,
        },
        ..BaselineConfig::default()
    })
}

#[test]
fn sgd_converges_identically_enough_on_both_platforms() {
    let dataset = rcv1_like(192, 64, 8, 11);
    let tasks = sgd::partition(192, 4, 64, 0.5, 16);

    let cluster = Cluster::new(2);
    sgd::register_faasm(&cluster, "ml");
    sgd::upload_dataset(cluster.kv().as_ref(), &dataset).unwrap();
    for _ in 0..2 {
        let ids: Vec<_> = tasks
            .iter()
            .map(|t| cluster.invoke_async("ml", "sgd_update", t.to_bytes()))
            .collect();
        for id in ids {
            assert_eq!(cluster.await_result(id).return_code(), 0);
        }
    }
    let acc_faasm = sgd::accuracy(cluster.kv().as_ref(), &dataset).unwrap();

    let platform = small_platform(2);
    sgd::register_baseline(&platform, "ml");
    sgd::upload_dataset(platform.kv().as_ref(), &dataset).unwrap();
    for _ in 0..2 {
        let ids: Vec<_> = tasks
            .iter()
            .map(|t| platform.invoke_async("ml", "sgd_update", t.to_bytes()))
            .collect();
        for id in ids {
            assert_eq!(platform.await_result(id).return_code(), 0);
        }
    }
    let acc_baseline = sgd::accuracy(platform.kv().as_ref(), &dataset).unwrap();

    // HOGWILD! interleavings differ, but both must genuinely learn.
    assert!(acc_faasm > 0.7, "faasm accuracy {acc_faasm}");
    assert!(acc_baseline > 0.7, "baseline accuracy {acc_baseline}");
}

#[test]
fn matmul_results_are_bitwise_identical_across_platforms() {
    let n = 16;

    let cluster = Cluster::new(2);
    matmul::register_faasm(&cluster, "la");
    matmul::upload_matrices(cluster.kv().as_ref(), n, 3).unwrap();
    let r = cluster.invoke("la", "mm_main", (n as u32).to_le_bytes().to_vec());
    assert_eq!(r.return_code(), 0, "{:?}", r.status);
    let c_faasm = matmul::read_result(cluster.kv().as_ref(), n).unwrap();

    let platform = small_platform(2);
    matmul::register_baseline(&platform, "la");
    matmul::upload_matrices(platform.kv().as_ref(), n, 3).unwrap();
    let r = platform.invoke("la", "mm_main", (n as u32).to_le_bytes().to_vec());
    assert_eq!(r.return_code(), 0, "{:?}", r.status);
    let c_baseline = matmul::read_result(platform.kv().as_ref(), n).unwrap();

    assert_eq!(c_faasm, c_baseline, "identical code, identical result");
}

#[test]
fn inference_classifications_match_across_platforms() {
    let imgs = synth_images(3, inference::SIDE, 21);

    let cluster = Cluster::new(1);
    inference::setup_faasm(&cluster, "serve", 5);
    let platform = small_platform(1);
    inference::setup_baseline(&platform, "serve", 5);

    for img in &imgs {
        let a = cluster.invoke("serve", "infer", img.clone());
        let b = platform.invoke("serve", "infer", img.clone());
        assert_eq!(a.return_code(), 0);
        assert_eq!(b.return_code(), 0);
        assert_eq!(a.output, b.output, "same model, same scores");
    }
}

#[test]
fn baseline_ships_more_bytes_and_bills_more_memory() {
    // The central quantitative contrast of §6.2 at miniature scale.
    let dataset = rcv1_like(128, 64, 8, 5);
    let tasks = sgd::partition(128, 4, 64, 0.5, 16);

    let cluster = Cluster::new(2);
    sgd::register_faasm(&cluster, "ml");
    sgd::upload_dataset(cluster.kv().as_ref(), &dataset).unwrap();
    let ids: Vec<_> = tasks
        .iter()
        .map(|t| cluster.invoke_async("ml", "sgd_update", t.to_bytes()))
        .collect();
    for id in ids {
        assert_eq!(cluster.await_result(id).return_code(), 0);
    }
    let faasm_bytes = cluster.fabric().stats().total_bytes();
    let faasm_billable = cluster.billable_gb_seconds();

    let platform = small_platform(2);
    sgd::register_baseline(&platform, "ml");
    sgd::upload_dataset(platform.kv().as_ref(), &dataset).unwrap();
    let ids: Vec<_> = tasks
        .iter()
        .map(|t| platform.invoke_async("ml", "sgd_update", t.to_bytes()))
        .collect();
    for id in ids {
        assert_eq!(platform.await_result(id).return_code(), 0);
    }
    let baseline_bytes = platform.fabric().stats().total_bytes();
    let baseline_billable = platform.billable_gb_seconds();

    assert!(
        baseline_bytes > faasm_bytes,
        "containers ship whole values: {baseline_bytes} vs {faasm_bytes}"
    );
    assert!(
        baseline_billable > faasm_billable,
        "containers bill full private RSS: {baseline_billable} vs {faasm_billable}"
    );
}

#[test]
fn cold_start_latency_ordering_holds() {
    // Tab. 3's ordering at test scale: container cold start ≫ Faaslet cold
    // start; warm ≈ free on both.
    let platform = small_platform(1);
    inference::setup_baseline(&platform, "serve", 5);
    let img = synth_images(1, inference::SIDE, 1).remove(0);
    platform.invoke("serve", "infer", img.clone());
    let container_cold_ns = platform.hosts()[0].metrics().mean_init_ns();

    let cluster = Cluster::new(1);
    inference::setup_faasm(&cluster, "serve", 5);
    cluster.invoke("serve", "infer", img);
    let faaslet_cold_ns = cluster.instances()[0].metrics().mean_init_ns();

    assert!(
        container_cold_ns > faaslet_cold_ns,
        "container init {container_cold_ns} ns must exceed faaslet init {faaslet_cold_ns} ns"
    );
}

// The paper's §6 comparisons, each as a counted ordering: who ships more
// bytes, who bills more memory, who runs out of memory, who shares pages.
// The measured values print with `--nocapture`; README.md tabulates them.

fn faasm_cluster(hosts: usize, workers: usize) -> Cluster {
    Cluster::with_config(ClusterConfig {
        hosts,
        instance: InstanceConfig {
            workers,
            ..InstanceConfig::default()
        },
        ..ClusterConfig::default()
    })
}

/// A baseline whose hosts each admit containers (of `image_bytes`) only
/// while their resident bytes stay within `host_memory_limit`.
fn limited_platform(
    hosts: usize,
    workers: usize,
    image_bytes: usize,
    host_memory_limit: usize,
) -> BaselinePlatform {
    BaselinePlatform::with_config(BaselineConfig {
        hosts,
        workers,
        image: ImageConfig {
            image_bytes,
            layers: 5,
            boot_passes: 4,
        },
        host_memory_limit,
    })
}

const MIB: usize = 1 << 20;

/// Run every task at once and collect the failures' messages.
fn failures(
    tasks: &[sgd::SgdTask],
    invoke: impl Fn(Vec<u8>) -> CallId,
    wait: impl Fn(CallId) -> CallResult,
) -> Vec<String> {
    let ids: Vec<_> = tasks.iter().map(|t| invoke(t.to_bytes())).collect();
    ids.into_iter()
        .map(wait)
        .filter_map(|r| match r.status {
            CallStatus::Success => None,
            status => Some(format!("{status:?}")),
        })
        .collect()
}

#[test]
fn baseline_runs_out_of_memory_where_faasm_does_not() {
    // Fig. 6a: Knative's line stops above ~30 parallel functions. Each
    // container holds a private 2 MiB image and a 12 MiB host fits six, so
    // 4 hosts x 8 workers OOM at 32 parallel calls and not at 24.
    let dataset = rcv1_like(256, 64, 8, 42);
    for (parallelism, baseline_fits) in [(24, true), (32, false)] {
        let tasks = sgd::partition(256, parallelism, 64, 0.5, 32);
        assert_eq!(tasks.len(), parallelism as usize);

        let cluster = faasm_cluster(4, 8);
        sgd::register_faasm(&cluster, "ml");
        sgd::upload_dataset(cluster.kv().as_ref(), &dataset).unwrap();
        let faasm = failures(
            &tasks,
            |input| cluster.invoke_async("ml", "sgd_update", input),
            |id| cluster.await_result(id),
        );

        let platform = limited_platform(4, 8, 2 * MIB, 12 * MIB);
        sgd::register_baseline(&platform, "ml");
        sgd::upload_dataset(platform.kv().as_ref(), &dataset).unwrap();
        let baseline = failures(
            &tasks,
            |input| platform.invoke_async("ml", "sgd_update", input),
            |id| platform.await_result(id),
        );
        println!(
            "Fig. 6a P={parallelism}: faasm {}/{parallelism} ok, baseline {}/{parallelism} ok {:?}",
            tasks.len() - faasm.len(),
            tasks.len() - baseline.len(),
            baseline.first(),
        );

        assert!(faasm.is_empty(), "faasm at P={parallelism}: {faasm:?}");
        if baseline_fits {
            assert!(
                baseline.is_empty(),
                "baseline at P={parallelism}: {baseline:?}"
            );
        } else {
            assert!(
                baseline.iter().any(|e| e.contains("OOMKilled")),
                "baseline at P={parallelism} must OOM: {baseline:?}"
            );
        }
    }
}

#[test]
fn inference_ships_fewer_bytes_and_bills_less_memory_on_faasm() {
    // Fig. 7: 40 classifications after one warm-up on 2 hosts x 4 workers.
    // Faasm maps the model once per host; a container copies it in, and a
    // cold container (every 5th call: the 20 % series) copies it again. A
    // container is billed its private 4 MiB image for as long as it runs.
    let images = synth_images(40, inference::SIDE, 7);

    let cluster = faasm_cluster(2, 4);
    inference::setup_faasm(&cluster, "serve", 9);
    cluster.invoke("serve", "infer", images[0].clone());
    let before = cluster.fabric().stats().snapshot();
    for img in &images {
        assert_eq!(
            cluster.invoke("serve", "infer", img.clone()).return_code(),
            0
        );
    }
    let faasm_bytes = cluster
        .fabric()
        .stats()
        .snapshot()
        .delta(&before)
        .total_bytes();
    let faasm_billable = cluster.billable_gb_seconds();

    let baseline = |evict_every: usize| {
        let platform = limited_platform(2, 4, 4 * MIB, 1 << 30);
        inference::setup_baseline(&platform, "serve", 9);
        platform.invoke("serve", "infer", images[0].clone());
        let before = platform.fabric().stats().snapshot();
        for (i, img) in images.iter().enumerate() {
            if evict_every > 0 && i % evict_every == 0 {
                platform.evict_all();
            }
            assert_eq!(
                platform.invoke("serve", "infer", img.clone()).return_code(),
                0
            );
        }
        let bytes = platform
            .fabric()
            .stats()
            .snapshot()
            .delta(&before)
            .total_bytes();
        (bytes, platform.billable_gb_seconds())
    };
    let (warm_bytes, baseline_billable) = baseline(0);
    let (cold_bytes, _) = baseline(5);
    println!(
        "Fig. 7: fabric bytes faasm {faasm_bytes}, baseline 0% cold {warm_bytes}, \
         20% cold {cold_bytes}; GB-s faasm {faasm_billable:.2e}, baseline {baseline_billable:.2e}"
    );

    assert!(
        faasm_bytes < warm_bytes && warm_bytes < cold_bytes,
        "bytes: faasm {faasm_bytes} < warm containers {warm_bytes} < 20% cold {cold_bytes}"
    );
    assert!(
        faasm_billable < baseline_billable,
        "GB-s: faasm {faasm_billable} < containers {baseline_billable}"
    );
}

#[test]
fn matmul_ships_fewer_bytes_on_faasm() {
    // Fig. 8b: one warm multiplication, fabric bytes. Faasm's products
    // read their operand blocks from the host's shared replica; each
    // container fetches them into its own copy.
    let n: u32 = 16;
    let cluster = faasm_cluster(2, 8);
    matmul::register_faasm(&cluster, "la");
    matmul::upload_matrices(cluster.kv().as_ref(), n as usize, 5).unwrap();
    let platform = limited_platform(2, 8, 256 * 1024, 1 << 30);
    matmul::register_baseline(&platform, "la");
    matmul::upload_matrices(platform.kv().as_ref(), n as usize, 5).unwrap();

    let input = n.to_le_bytes().to_vec();
    cluster.invoke("la", "mm_main", input.clone());
    let before = cluster.fabric().stats().snapshot();
    let r = cluster.invoke("la", "mm_main", input.clone());
    assert_eq!(r.return_code(), 0, "{:?}", r.status);
    let faasm_bytes = cluster
        .fabric()
        .stats()
        .snapshot()
        .delta(&before)
        .total_bytes();

    platform.invoke("la", "mm_main", input.clone());
    let before = platform.fabric().stats().snapshot();
    let r = platform.invoke("la", "mm_main", input);
    assert_eq!(r.return_code(), 0, "{:?}", r.status);
    let baseline_bytes = platform
        .fabric()
        .stats()
        .snapshot()
        .delta(&before)
        .total_bytes();
    println!("Fig. 8 n={n}: fabric bytes faasm {faasm_bytes}, baseline {baseline_bytes}");

    assert!(
        faasm_bytes < baseline_bytes,
        "faasm {faasm_bytes} < containers {baseline_bytes}"
    );
}

/// The §6.5 Python-class guest: its `init` maps a 4 MiB heap and writes
/// one word per 4 KiB block of it.
const PYTHON_CLASS_FL: &str = r#"
    extern int mmap(int len);
    void init() {
        int base = mmap(4194304);
        ptr int p = (ptr int) base;
        for (int i = 0; i < 1048576; i = i + 1024) {
            p[i] = i;
        }
    }
    int main() { return 0; }
"#;

/// A Faaslet environment with no cluster around it.
fn bare_env() -> FaasletEnv {
    let fabric = faasm::net::Fabric::new();
    let kv = Arc::new(KvClient::local(Arc::new(KvStore::new())));
    FaasletEnv {
        state: Arc::new(StateManager::new(kv)),
        hostfs: HostFs::new(Arc::new(ObjectStore::new())),
        nic: fabric.add_host(),
        router: Arc::new(NoChain),
        cgroup: CgroupCpu::new(1 << 22),
        linker: Arc::new(faaslet_linker()),
        egress: None,
    }
}

struct NoHttp;

impl HttpRouter for NoHttp {
    fn chain_call(&self, _user: &str, _function: &str, _input: Vec<u8>) -> CallId {
        CallId(0)
    }

    fn await_call(&self, id: CallId) -> CallResult {
        CallResult::error(id, "no chaining")
    }
}

#[test]
fn restored_faaslets_share_one_heap_and_undercut_a_container() {
    // Tab. 3 / Fig. 10: a Proto-Faaslet restore maps the captured heap
    // copy-on-write, so N restores split one heap's PSS instead of adding
    // N heaps, and each one's share is below a container's.
    const RESTORES: usize = 8;
    let env = bare_env();
    let module = faasm::lang::compile(PYTHON_CLASS_FL).unwrap();
    let def = Arc::new(FunctionDef {
        code: GuestCode::Fvm(ObjectModule::prepare(module).unwrap()),
        entry: "main".into(),
        init: Some("init".into()),
        reset_after_call: true,
    });
    let mut donor = Faaslet::create_cold(0, "u", "py", Arc::clone(&def), &env).unwrap();
    let cold_pss = donor.pss_bytes();
    let proto = donor.capture_proto().unwrap();
    let restored: Vec<_> = (1..=RESTORES as u64)
        .map(|id| Faaslet::restore(id, &proto, Arc::clone(&def), &env).unwrap())
        .collect();
    let restored_pss = restored[0].pss_bytes();

    let image = vec![1u8; 8 * MIB];
    let config = ImageConfig {
        image_bytes: image.len(),
        layers: 1,
        boot_passes: 1,
    };
    let kv = Arc::new(KvClient::local(Arc::new(KvStore::new())));
    let container = Container::cold_start(0, "u", "py", &image, &config, kv, Arc::new(NoHttp));
    let container_pss = container.pss_bytes(8);
    println!(
        "Tab. 3: PSS cold faaslet {cold_pss} B, each of {RESTORES} restored {restored_pss} B, \
         8 MiB-image container (8 co-located) {container_pss} B"
    );

    assert!(
        cold_pss >= 4.0 * MIB as f64 - 4096.0,
        "init backed its heap"
    );
    assert!(
        restored_pss < container_pss,
        "a restored Faaslet {restored_pss} B < a container {container_pss} B"
    );
    // One heap: the proto's snapshot, the donor and every restore each map
    // the captured pages, and their shares add back up to the cold heap.
    let snapshot_share: f64 = proto
        .snapshot
        .mem
        .as_ref()
        .unwrap()
        .pages()
        .iter()
        .map(|page| page.resident_bytes() as f64 / Arc::strong_count(page) as f64)
        .sum();
    let accounted =
        snapshot_share + donor.pss_bytes() + restored.iter().map(Faaslet::pss_bytes).sum::<f64>();
    assert!(
        (accounted - cold_pss).abs() < 1e-6 * cold_pss,
        "{RESTORES} restores add no resident bytes: {accounted} vs {cold_pss}"
    );
    for f in &restored {
        assert_eq!(f.pss_bytes(), restored_pss, "every restore takes one share");
    }
}
