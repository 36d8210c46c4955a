//! The generated inputs: model weights and activations from the
//! synthetic zoo, all derived from the run's seed.

use ss_models::{zoo, Network};
use ss_pipeline::fnv1a_64;
use ss_serve::wire;
use ss_tensor::Tensor;

use crate::rng::Rng;

/// A named tensor.
pub type Named = (String, Tensor);

/// Sub-seed for one input stream, so weights, activations and request
/// order never share generator state.
pub fn derive(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

fn weights(net: &Network, seed: u64) -> Vec<Named> {
    net.layers()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.weight_count() > 0)
        .map(|(i, l)| (format!("{}.weight", l.name()), net.weight_tensor(i, seed)))
        .collect()
}

fn activations(net: &Network, input_seeds: &[u64]) -> Vec<Named> {
    input_seeds
        .iter()
        .enumerate()
        .flat_map(|(k, &s)| {
            net.layers()
                .iter()
                .enumerate()
                .map(move |(i, l)| (format!("in{k}.{}", l.name()), net.input_tensor(i, s)))
        })
        .collect()
}

/// ResNet-50 at half geometry: 54 weight tensors, 6.37 M values.
pub fn resnet_weights(seed: u64) -> Vec<Named> {
    weights(&zoo::resnet50().scaled_down(2), derive(seed, 1))
}

/// ResNet-50 (half geometry) input activations for `inputs` inputs:
/// 54 tensors of 1 Ki-98 Ki values each per input.
pub fn resnet_activations(seed: u64, inputs: usize) -> Vec<Named> {
    let seeds: Vec<u64> = (0..inputs as u64).map(|k| derive(seed, 100 + k)).collect();
    activations(&zoo::resnet50().scaled_down(2), &seeds)
}

/// AlexNet at quarter geometry: 8 weight tensors, 3.8 M values, 62% of
/// them in the 2.4 M-value `fc6`.
pub fn alexnet_weights(seed: u64) -> Vec<Named> {
    weights(&zoo::alexnet().scaled_down(4), derive(seed, 2))
}

/// MobileNet input activations for one input: 28 tensors, 5.1 M values.
pub fn mobilenet_activations(seed: u64) -> Vec<Named> {
    activations(&zoo::mobilenet(), &[derive(seed, 3)])
}

/// FNV-1a digest of every tensor's wire encoding (shape, type and
/// values), in order, followed by the request `sequence`: two runs with
/// equal digests replayed the same work.
pub fn digest<'a>(tensors: impl IntoIterator<Item = &'a Tensor>, sequence: &[u32]) -> u64 {
    let mut hashes = Vec::new();
    for t in tensors {
        hashes.extend(fnv1a_64(&wire::encode_tensor(t)).to_le_bytes());
    }
    for i in sequence {
        hashes.extend(i.to_le_bytes());
    }
    fnv1a_64(&hashes)
}
