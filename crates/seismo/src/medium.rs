//! The elastic medium: homogeneous or depth-layered, matching DISFD's
//! "propagation of waves in a layered medium" with "the Earth's velocity
//! structures as input".

/// Elastic properties of one material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Density ρ.
    pub rho: f64,
    /// Lamé λ.
    pub lam: f64,
    /// Lamé μ (shear modulus).
    pub mu: f64,
}

impl Material {
    /// P-wave speed √((λ+2μ)/ρ).
    pub fn vp(&self) -> f64 {
        ((self.lam + 2.0 * self.mu) / self.rho).sqrt()
    }

    /// S-wave speed √(μ/ρ).
    pub fn vs(&self) -> f64 {
        (self.mu / self.rho).sqrt()
    }
}

/// One horizontal layer: a material extending down to (and excluding)
/// depth index `bottom_k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Layer {
    /// First depth index *below* this layer (exclusive upper bound on `k`).
    pub bottom_k: usize,
    /// The layer's material.
    pub material: Material,
}

/// A depth-dependent elastic medium (horizontally stratified, like the
/// 1-D Earth models seismic codes take as input).
#[derive(Debug, Clone, PartialEq)]
pub struct Medium {
    layers: Vec<Layer>,
}

impl Medium {
    /// A single material everywhere.
    pub fn homogeneous(rho: f64, lam: f64, mu: f64) -> Medium {
        Medium { layers: vec![Layer { bottom_k: usize::MAX, material: Material { rho, lam, mu } }] }
    }

    /// A stratified medium. Layers must be in increasing `bottom_k` order;
    /// the last layer extends to the bottom regardless of its `bottom_k`.
    ///
    /// # Panics
    /// Panics on an empty layer list or non-increasing boundaries — a
    /// malformed Earth model is a setup bug.
    pub fn layered(layers: Vec<Layer>) -> Medium {
        assert!(!layers.is_empty(), "a medium needs at least one layer");
        assert!(
            layers.windows(2).all(|w| w[0].bottom_k < w[1].bottom_k),
            "layer boundaries must strictly increase"
        );
        Medium { layers }
    }

    /// A conventional two-layer crust-over-mantle toy model: a slow, light
    /// layer above `interface_k` and a fast, dense half-space below.
    pub fn two_layer(interface_k: usize) -> Medium {
        Medium::layered(vec![
            Layer { bottom_k: interface_k, material: Material { rho: 1.0, lam: 1.0, mu: 1.0 } },
            Layer { bottom_k: usize::MAX, material: Material { rho: 1.3, lam: 3.0, mu: 2.5 } },
        ])
    }

    /// The material at depth index `k`.
    #[inline]
    pub fn at_depth(&self, k: usize) -> Material {
        for layer in &self.layers {
            if k < layer.bottom_k {
                return layer.material;
            }
        }
        self.layers.last().expect("non-empty by construction").material
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_medium_is_depth_independent() {
        let m = Medium::homogeneous(1.0, 2.0, 3.0);
        assert_eq!(m.at_depth(0), m.at_depth(1000));
    }

    #[test]
    fn layered_lookup_respects_boundaries() {
        let m = Medium::two_layer(5);
        assert_eq!(m.at_depth(0), m.at_depth(4));
        assert_ne!(m.at_depth(4), m.at_depth(5));
        assert_eq!(m.at_depth(5), m.at_depth(50));
        // The lower half-space is faster.
        assert!(m.at_depth(5).vp() > m.at_depth(0).vp());
    }

    #[test]
    fn wave_speeds_are_physical() {
        let m = Material { rho: 2.0, lam: 3.0, mu: 1.5 };
        assert!((m.vp() - (6.0f64 / 2.0).sqrt()).abs() < 1e-12);
        assert!((m.vs() - 0.75f64.sqrt()).abs() < 1e-12);
        assert!(m.vp() > m.vs(), "P waves outrun S waves");
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn misordered_layers_are_rejected() {
        let mat = Material { rho: 1.0, lam: 1.0, mu: 1.0 };
        Medium::layered(vec![
            Layer { bottom_k: 5, material: mat },
            Layer { bottom_k: 5, material: mat },
        ]);
    }
}
