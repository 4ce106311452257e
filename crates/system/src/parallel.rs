//! Weight placement and KV-cache capacity accounting.
//!
//! The paper's systems differ not only in speed but in how much memory
//! is left for KV cache after weights are placed, which caps batch size
//! and throughput (Fig. 5(c), Fig. 16):
//!
//! * **homogeneous** systems (GPU, 2xGPU, Duplex, Bank-PIM): non-expert
//!   weights are tensor-parallel within a node and *data-parallel*
//!   (duplicated) across nodes; expert weights are stored exactly once
//!   across the cluster (expert parallel or expert-tensor-parallel);
//! * the **heterogeneous** system stores expert weights and KV cache on
//!   its Logic-PIM devices (which run MoE and decode attention) and
//!   non-expert weights on both device kinds, stranding most of the GPU
//!   memory.

use duplex_model::ModelConfig;

/// Result of placing a model onto a system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityPlan {
    /// Total device memory in the system (bytes).
    pub total_memory_bytes: u64,
    /// Bytes consumed by weights (including any duplication).
    pub weight_bytes_stored: u64,
    /// Bytes available for KV cache.
    pub kv_capacity_bytes: u64,
}

impl CapacityPlan {
    /// Homogeneous cluster of `nodes x devices_per_node` devices with
    /// `device_mem_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if the weights do not fit.
    pub fn homogeneous(
        model: &ModelConfig,
        nodes: u32,
        devices_per_node: u32,
        device_mem_bytes: u64,
    ) -> Self {
        let total = device_mem_bytes * u64::from(nodes) * u64::from(devices_per_node);
        let expert_bytes = model.weight_bytes() - model.non_expert_weight_bytes();
        let stored = model.non_expert_weight_bytes() * u64::from(nodes) + expert_bytes;
        assert!(
            stored <= total,
            "{} needs {} GB of weights but the system has {} GB",
            model.name,
            stored >> 30,
            total >> 30
        );
        Self {
            total_memory_bytes: total,
            weight_bytes_stored: stored,
            kv_capacity_bytes: total - stored,
        }
    }

    /// Heterogeneous system: `gpus` conventional devices plus `pims`
    /// Logic-PIM devices in one node. Expert weights and KV live on the
    /// PIM devices; non-expert weights are stored on both kinds.
    ///
    /// # Panics
    ///
    /// Panics if the weights do not fit on their assigned pools.
    pub fn hetero(model: &ModelConfig, gpus: u32, pims: u32, device_mem_bytes: u64) -> Self {
        let total = device_mem_bytes * u64::from(gpus + pims);
        let pim_mem = device_mem_bytes * u64::from(pims);
        let expert_bytes = model.weight_bytes() - model.non_expert_weight_bytes();
        let non_expert = model.non_expert_weight_bytes();
        let stored = non_expert * 2 + expert_bytes;
        let pim_used = non_expert + expert_bytes;
        assert!(pim_used <= pim_mem, "expert weights overflow the PIM pool");
        assert!(
            non_expert <= device_mem_bytes * u64::from(gpus),
            "weights overflow the GPU pool"
        );
        Self {
            total_memory_bytes: total,
            weight_bytes_stored: stored,
            // KV must sit with decode attention, i.e. on the PIM pool.
            kv_capacity_bytes: pim_mem - pim_used,
        }
    }

    /// Largest batch of requests with `ctx` max context tokens each
    /// that fits the KV budget, capped at `requested`.
    pub fn max_batch(&self, model: &ModelConfig, ctx: u64, requested: usize) -> usize {
        let per_request = model.kv_bytes(ctx).max(1);
        let fit = (self.kv_capacity_bytes / per_request) as usize;
        fit.min(requested)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    #[test]
    fn mixtral_on_four_gpus() {
        let m = ModelConfig::mixtral_8x7b();
        let plan = CapacityPlan::homogeneous(&m, 1, 4, 80 * GB);
        assert_eq!(plan.total_memory_bytes, 320 * GB);
        // ~94 GB of weights leaves ~226 GB of KV.
        let kv_gb = plan.kv_capacity_bytes as f64 / GB as f64;
        assert!(kv_gb > 215.0 && kv_gb < 235.0, "got {kv_gb}");
    }

    #[test]
    fn data_parallel_nodes_duplicate_non_expert_weights() {
        let m = ModelConfig::grok1();
        let one = CapacityPlan::homogeneous(&m, 1, 16, 80 * GB);
        let two = CapacityPlan::homogeneous(&m, 2, 8, 80 * GB);
        assert!(two.weight_bytes_stored > one.weight_bytes_stored);
        assert_eq!(
            two.weight_bytes_stored - one.weight_bytes_stored,
            m.non_expert_weight_bytes()
        );
    }

    #[test]
    fn hetero_strands_gpu_memory() {
        let m = ModelConfig::mixtral_8x7b();
        let homo = CapacityPlan::homogeneous(&m, 1, 4, 80 * GB);
        let het = CapacityPlan::hetero(&m, 2, 2, 80 * GB);
        assert!(
            het.kv_capacity_bytes < homo.kv_capacity_bytes / 2,
            "hetero KV {} vs homo {}",
            het.kv_capacity_bytes >> 30,
            homo.kv_capacity_bytes >> 30
        );
    }

    #[test]
    fn split_duplicates_whole_model() {
        // Fig. 16's split pools: each 2-device pool stores the whole
        // model, so together they keep less KV than one 4-device system.
        let m = ModelConfig::mixtral_8x7b();
        let pool = CapacityPlan::homogeneous(&m, 1, 2, 80 * GB);
        assert_eq!(pool.weight_bytes_stored, m.weight_bytes());
        let homo = CapacityPlan::homogeneous(&m, 1, 4, 80 * GB);
        assert!(2 * pool.kv_capacity_bytes < homo.kv_capacity_bytes);
    }

    #[test]
    fn max_batch_respects_kv_budget() {
        let m = ModelConfig::mixtral_8x7b();
        let plan = CapacityPlan::homogeneous(&m, 1, 4, 80 * GB);
        // 8192-token contexts at 128 KiB/token = 1 GiB per request.
        let batch = plan.max_batch(&m, 8192, 1024);
        let kv_gb = (plan.kv_capacity_bytes >> 30) as usize;
        assert_eq!(batch, kv_gb);
        assert_eq!(plan.max_batch(&m, 128, 32), 32, "cap at requested batch");
    }

    #[test]
    #[should_panic(expected = "GB")]
    fn oversize_model_rejected() {
        let m = ModelConfig::grok1();
        CapacityPlan::homogeneous(&m, 1, 4, 80 * GB); // 314B FP16 >> 320 GB
    }

    #[test]
    fn glam_fits_eight_devices() {
        let m = ModelConfig::glam();
        let plan = CapacityPlan::homogeneous(&m, 1, 8, 80 * GB);
        assert!(plan.kv_capacity_bytes > 300 * GB);
    }
}
