//! The net under `crates/seismo`'s arithmetic: all 18 fields of both
//! regions, bit for bit.
//!
//! Nothing else in the crate checks a value: the app tests ask for finite
//! fields, positive energy and a travel-time ordering, so a rewrite of a
//! kernel body that changed a rounding — or dropped a boundary term — would
//! still pass them. This file holds the values instead: FNV-1a-64 over every
//! field (`f64::to_bits`, little endian) after 20 iterations, for both
//! layouts × {homogeneous, `Medium::two_layer(6)`} × {`FdmPlan::Auto`,
//! `FdmPlan::Manual(cpu, gpu0)`}, on the default 32×32×16 grid and on three
//! odd shapes whose 1- and 2-wide axes make a whole region out of the
//! shortest lines a stencil walks (2×1×9 also crosses the layer interface).
//! Region 2 holds no source, so its nine fields stay zero and its own
//! bodies (`vel_taper`, the absorbing strips) are checked here only for
//! that; `kernels.rs` pins every body's output on seeded fields.
//!
//! **Never regenerate [`PINNED`] from the current code.** The constants were
//! printed by this very file run against the `crates/seismo` of commit
//! c73c385 — the parent of the change that made the FDM kernels walk their
//! layout's storage order in affine runs with per-plane material and a taper
//! table. They must read the same in debug and release builds:
//! floating-point results do not depend on the profile. On a mismatch the
//! failure message is the whole table as computed, in the constants' own
//! format — diff it against [`PINNED`] to see which case and field moved.

use clrt::Platform;
use multicl::{ContextSchedPolicy, MulticlContext, ProfileCache, SchedOptions};
use seismo::{Dims, FdmApp, FdmConfig, FdmPlan, Layout, Medium};
use std::fmt::Write as _;

const ITERATIONS: usize = 20;

/// `(layout, medium, plan, (nx, ny, nz), region 1 fields, region 2 fields)`;
/// fields in buffer order `vx vy vz sxx syy szz sxy sxz syz`.
type Row = (&'static str, &'static str, &'static str, (usize, usize, usize), [u64; 9], [u64; 9]);

/// Recorded at commit c73c385.
#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("col", "homogeneous", "auto", (32, 32, 16),
        [0xe859_5fb1_0675_8cfd, 0xbca8_464c_bba7_2919, 0x1800_3a39_c2ca_d343, 0x4189_857c_a7df_9cc3, 0x8847_03dc_4b47_1737, 0x08e8_8495_0784_87f7, 0xc6df_0115_ff2f_c288, 0x90fc_b829_9bc8_3670, 0x081a_b207_9ff6_3aa8],
        [0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325]),
    ("col", "homogeneous", "manual", (32, 32, 16),
        [0xe859_5fb1_0675_8cfd, 0xbca8_464c_bba7_2919, 0x1800_3a39_c2ca_d343, 0x4189_857c_a7df_9cc3, 0x8847_03dc_4b47_1737, 0x08e8_8495_0784_87f7, 0xc6df_0115_ff2f_c288, 0x90fc_b829_9bc8_3670, 0x081a_b207_9ff6_3aa8],
        [0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325]),
    ("col", "two_layer(6)", "auto", (32, 32, 16),
        [0xb157_bb67_1e07_4fde, 0x626a_9f5a_6720_ded6, 0xafbc_4d18_26e4_23f4, 0xb689_8e02_e701_a31a, 0xfbd5_b90d_8a64_5d56, 0xd335_5ce7_ae91_f12c, 0x2201_2a78_89dc_2b1a, 0x6424_b6c3_9f47_e3c3, 0xacb3_e7dd_c2ec_8413],
        [0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325]),
    ("col", "two_layer(6)", "manual", (32, 32, 16),
        [0xb157_bb67_1e07_4fde, 0x626a_9f5a_6720_ded6, 0xafbc_4d18_26e4_23f4, 0xb689_8e02_e701_a31a, 0xfbd5_b90d_8a64_5d56, 0xd335_5ce7_ae91_f12c, 0x2201_2a78_89dc_2b1a, 0x6424_b6c3_9f47_e3c3, 0xacb3_e7dd_c2ec_8413],
        [0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325]),
    ("row", "homogeneous", "auto", (32, 32, 16),
        [0xbb87_981a_0fee_a721, 0x159e_cefa_e189_5da9, 0x53b3_059d_576d_01e3, 0xf834_e075_f902_924b, 0xebbe_f585_68d2_ee2b, 0x345c_2e5d_9562_1fcb, 0xdead_c9e0_2e92_58b0, 0xe7bb_21fd_05e2_3314, 0xb074_c515_5192_bc54],
        [0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325]),
    ("row", "homogeneous", "manual", (32, 32, 16),
        [0xbb87_981a_0fee_a721, 0x159e_cefa_e189_5da9, 0x53b3_059d_576d_01e3, 0xf834_e075_f902_924b, 0xebbe_f585_68d2_ee2b, 0x345c_2e5d_9562_1fcb, 0xdead_c9e0_2e92_58b0, 0xe7bb_21fd_05e2_3314, 0xb074_c515_5192_bc54],
        [0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325]),
    ("row", "two_layer(6)", "auto", (32, 32, 16),
        [0x22d8_5093_fe49_b73e, 0x6597_36a0_8dbd_cd76, 0x656f_238a_ebc4_7930, 0xe237_5f72_aeb1_0352, 0x6bae_0766_465d_9116, 0xeefd_a8f6_2b91_b03c, 0xe59f_a106_272d_dc46, 0x1024_1cd8_8cc0_0fdb, 0x6753_405e_b4b1_47cb],
        [0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325]),
    ("row", "two_layer(6)", "manual", (32, 32, 16),
        [0x22d8_5093_fe49_b73e, 0x6597_36a0_8dbd_cd76, 0x656f_238a_ebc4_7930, 0xe237_5f72_aeb1_0352, 0x6bae_0766_465d_9116, 0xeefd_a8f6_2b91_b03c, 0xe59f_a106_272d_dc46, 0x1024_1cd8_8cc0_0fdb, 0x6753_405e_b4b1_47cb],
        [0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325, 0xc74b_47c8_c74a_2325]),
    ("col", "homogeneous", "auto", (5, 2, 1),
        [0x7a1f_8c8c_38bb_3e61, 0xed3b_6e7e_2f1a_11f9, 0xf14b_84b8_290b_8965, 0xe4fe_1c38_ccc3_096e, 0x174b_ac21_1921_b565, 0x2e27_2845_0485_4bc6, 0xee85_45fe_dd89_0e8d, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965],
        [0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965]),
    ("col", "homogeneous", "manual", (5, 2, 1),
        [0x7a1f_8c8c_38bb_3e61, 0xed3b_6e7e_2f1a_11f9, 0xf14b_84b8_290b_8965, 0xe4fe_1c38_ccc3_096e, 0x174b_ac21_1921_b565, 0x2e27_2845_0485_4bc6, 0xee85_45fe_dd89_0e8d, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965],
        [0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965]),
    ("col", "two_layer(6)", "auto", (5, 2, 1),
        [0x7a1f_8c8c_38bb_3e61, 0xed3b_6e7e_2f1a_11f9, 0xf14b_84b8_290b_8965, 0xe4fe_1c38_ccc3_096e, 0x174b_ac21_1921_b565, 0x2e27_2845_0485_4bc6, 0xee85_45fe_dd89_0e8d, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965],
        [0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965]),
    ("col", "two_layer(6)", "manual", (5, 2, 1),
        [0x7a1f_8c8c_38bb_3e61, 0xed3b_6e7e_2f1a_11f9, 0xf14b_84b8_290b_8965, 0xe4fe_1c38_ccc3_096e, 0x174b_ac21_1921_b565, 0x2e27_2845_0485_4bc6, 0xee85_45fe_dd89_0e8d, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965],
        [0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965]),
    ("row", "homogeneous", "auto", (5, 2, 1),
        [0xd9ac_7080_4044_72e1, 0xd204_a35e_f535_7eb1, 0xf14b_84b8_290b_8965, 0x1647_3113_69d2_b66e, 0x344a_a4da_c90b_1ce5, 0x6f87_7903_dbc0_7306, 0x0483_62a3_8ea4_ff7d, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965],
        [0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965]),
    ("row", "homogeneous", "manual", (5, 2, 1),
        [0xd9ac_7080_4044_72e1, 0xd204_a35e_f535_7eb1, 0xf14b_84b8_290b_8965, 0x1647_3113_69d2_b66e, 0x344a_a4da_c90b_1ce5, 0x6f87_7903_dbc0_7306, 0x0483_62a3_8ea4_ff7d, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965],
        [0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965]),
    ("row", "two_layer(6)", "auto", (5, 2, 1),
        [0xd9ac_7080_4044_72e1, 0xd204_a35e_f535_7eb1, 0xf14b_84b8_290b_8965, 0x1647_3113_69d2_b66e, 0x344a_a4da_c90b_1ce5, 0x6f87_7903_dbc0_7306, 0x0483_62a3_8ea4_ff7d, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965],
        [0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965]),
    ("row", "two_layer(6)", "manual", (5, 2, 1),
        [0xd9ac_7080_4044_72e1, 0xd204_a35e_f535_7eb1, 0xf14b_84b8_290b_8965, 0x1647_3113_69d2_b66e, 0x344a_a4da_c90b_1ce5, 0x6f87_7903_dbc0_7306, 0x0483_62a3_8ea4_ff7d, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965],
        [0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965, 0xf14b_84b8_290b_8965]),
    ("col", "homogeneous", "auto", (1, 3, 4),
        [0x0243_cfa8_4518_5aa5, 0xcb00_dac1_87cc_5cd1, 0xaed3_c6fc_63cc_2860, 0x3787_7eb8_a539_c4bf, 0x5c26_0e74_8fde_2335, 0x2931_81e5_d542_e23e, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0xc18f_999b_5d3f_ec81],
        [0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5]),
    ("col", "homogeneous", "manual", (1, 3, 4),
        [0x0243_cfa8_4518_5aa5, 0xcb00_dac1_87cc_5cd1, 0xaed3_c6fc_63cc_2860, 0x3787_7eb8_a539_c4bf, 0x5c26_0e74_8fde_2335, 0x2931_81e5_d542_e23e, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0xc18f_999b_5d3f_ec81],
        [0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5]),
    ("col", "two_layer(6)", "auto", (1, 3, 4),
        [0x0243_cfa8_4518_5aa5, 0xcb00_dac1_87cc_5cd1, 0xaed3_c6fc_63cc_2860, 0x3787_7eb8_a539_c4bf, 0x5c26_0e74_8fde_2335, 0x2931_81e5_d542_e23e, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0xc18f_999b_5d3f_ec81],
        [0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5]),
    ("col", "two_layer(6)", "manual", (1, 3, 4),
        [0x0243_cfa8_4518_5aa5, 0xcb00_dac1_87cc_5cd1, 0xaed3_c6fc_63cc_2860, 0x3787_7eb8_a539_c4bf, 0x5c26_0e74_8fde_2335, 0x2931_81e5_d542_e23e, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0xc18f_999b_5d3f_ec81],
        [0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5]),
    ("row", "homogeneous", "auto", (1, 3, 4),
        [0x0243_cfa8_4518_5aa5, 0x1069_4da8_d3ba_03fd, 0x9f89_6669_c03c_01d0, 0x88e8_7787_6fb3_4267, 0x3b0e_f7f3_0967_dd39, 0x2307_b8bc_cd96_342a, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x7c79_599e_ea45_1939],
        [0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5]),
    ("row", "homogeneous", "manual", (1, 3, 4),
        [0x0243_cfa8_4518_5aa5, 0x1069_4da8_d3ba_03fd, 0x9f89_6669_c03c_01d0, 0x88e8_7787_6fb3_4267, 0x3b0e_f7f3_0967_dd39, 0x2307_b8bc_cd96_342a, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x7c79_599e_ea45_1939],
        [0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5]),
    ("row", "two_layer(6)", "auto", (1, 3, 4),
        [0x0243_cfa8_4518_5aa5, 0x1069_4da8_d3ba_03fd, 0x9f89_6669_c03c_01d0, 0x88e8_7787_6fb3_4267, 0x3b0e_f7f3_0967_dd39, 0x2307_b8bc_cd96_342a, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x7c79_599e_ea45_1939],
        [0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5]),
    ("row", "two_layer(6)", "manual", (1, 3, 4),
        [0x0243_cfa8_4518_5aa5, 0x1069_4da8_d3ba_03fd, 0x9f89_6669_c03c_01d0, 0x88e8_7787_6fb3_4267, 0x3b0e_f7f3_0967_dd39, 0x2307_b8bc_cd96_342a, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x7c79_599e_ea45_1939],
        [0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5, 0x0243_cfa8_4518_5aa5]),
    ("col", "homogeneous", "auto", (2, 1, 9),
        [0x23a7_b9da_7fb7_0fc1, 0xec32_669a_74fc_ae65, 0x5193_936d_9413_3ccb, 0xaa8d_21b0_a0a0_2688, 0xaa8d_21b0_a0a0_2688, 0x3ff2_1abb_56b6_9a9c, 0xec32_669a_74fc_ae65, 0x2117_bd1d_414f_e595, 0xec32_669a_74fc_ae65],
        [0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65]),
    ("col", "homogeneous", "manual", (2, 1, 9),
        [0x23a7_b9da_7fb7_0fc1, 0xec32_669a_74fc_ae65, 0x5193_936d_9413_3ccb, 0xaa8d_21b0_a0a0_2688, 0xaa8d_21b0_a0a0_2688, 0x3ff2_1abb_56b6_9a9c, 0xec32_669a_74fc_ae65, 0x2117_bd1d_414f_e595, 0xec32_669a_74fc_ae65],
        [0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65]),
    ("col", "two_layer(6)", "auto", (2, 1, 9),
        [0xe031_9703_5242_97b1, 0xec32_669a_74fc_ae65, 0xc678_2209_7277_a1a0, 0x7433_c88d_0b35_cbde, 0x7433_c88d_0b35_cbde, 0xdfae_429d_7fcf_e07d, 0xec32_669a_74fc_ae65, 0x2b4c_08cf_496a_f959, 0xec32_669a_74fc_ae65],
        [0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65]),
    ("col", "two_layer(6)", "manual", (2, 1, 9),
        [0xe031_9703_5242_97b1, 0xec32_669a_74fc_ae65, 0xc678_2209_7277_a1a0, 0x7433_c88d_0b35_cbde, 0x7433_c88d_0b35_cbde, 0xdfae_429d_7fcf_e07d, 0xec32_669a_74fc_ae65, 0x2b4c_08cf_496a_f959, 0xec32_669a_74fc_ae65],
        [0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65]),
    ("row", "homogeneous", "auto", (2, 1, 9),
        [0xc978_7d07_4550_3849, 0xec32_669a_74fc_ae65, 0xbe95_0e8c_4d35_e2ab, 0x2cf0_b522_3f27_5e28, 0x2cf0_b522_3f27_5e28, 0xaf99_4a2c_fad4_b7bc, 0xec32_669a_74fc_ae65, 0xcc2c_dea4_23a3_37cd, 0xec32_669a_74fc_ae65],
        [0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65]),
    ("row", "homogeneous", "manual", (2, 1, 9),
        [0xc978_7d07_4550_3849, 0xec32_669a_74fc_ae65, 0xbe95_0e8c_4d35_e2ab, 0x2cf0_b522_3f27_5e28, 0x2cf0_b522_3f27_5e28, 0xaf99_4a2c_fad4_b7bc, 0xec32_669a_74fc_ae65, 0xcc2c_dea4_23a3_37cd, 0xec32_669a_74fc_ae65],
        [0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65]),
    ("row", "two_layer(6)", "auto", (2, 1, 9),
        [0xcfbc_8b5d_fc69_9aed, 0xec32_669a_74fc_ae65, 0x3825_5362_1642_b9c0, 0x5d84_713c_86c9_c1be, 0x5d84_713c_86c9_c1be, 0x86d1_2e07_c5c2_c5fd, 0xec32_669a_74fc_ae65, 0x4013_93ce_d229_a4b9, 0xec32_669a_74fc_ae65],
        [0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65]),
    ("row", "two_layer(6)", "manual", (2, 1, 9),
        [0xcfbc_8b5d_fc69_9aed, 0xec32_669a_74fc_ae65, 0x3825_5362_1642_b9c0, 0x5d84_713c_86c9_c1be, 0x5d84_713c_86c9_c1be, 0x86d1_2e07_c5c2_c5fd, 0xec32_669a_74fc_ae65, 0x4013_93ce_d229_a4b9, 0xec32_669a_74fc_ae65],
        [0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65, 0xec32_669a_74fc_ae65]),
];

fn fnv1a(state: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in state {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `0x0123_4567_89ab_cdef`, the way [`PINNED`] spells a digest.
fn hex(d: u64) -> String {
    let h = format!("{d:016x}");
    format!("0x{}_{}_{}_{}", &h[..4], &h[4..8], &h[8..12], &h[12..])
}

/// Rows the way [`PINNED`] spells them, so a failure message can be diffed
/// against the constants.
fn render(rows: &[Row]) -> String {
    let mut text = String::new();
    for (layout, medium, plan, (nx, ny, nz), r1, r2) in rows {
        let line = |r: &[u64; 9]| r.iter().map(|&d| hex(d)).collect::<Vec<_>>().join(", ");
        writeln!(
            text,
            "    (\"{layout}\", \"{medium}\", \"{plan}\", ({nx}, {ny}, {nz}),\n        [{}],\n        [{}]),",
            line(r1),
            line(r2)
        )
        .expect("write to a String");
    }
    text
}

fn context(tag: &str) -> (Platform, MulticlContext) {
    let platform = Platform::paper_node();
    let dir =
        std::env::temp_dir().join(format!("seismo-bit-identity-{tag}-{}", std::process::id()));
    let options = SchedOptions { profile_cache: ProfileCache::at(dir), ..SchedOptions::default() };
    let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
        .expect("context over the paper node");
    (platform, ctx)
}

/// Run every layout × medium × plan case on one grid and compare the
/// digests with [`PINNED`].
fn pin(shape: (usize, usize, usize)) {
    let mut computed: Vec<Row> = Vec::new();
    for (layout_name, layout) in [("col", Layout::ColumnMajor), ("row", Layout::RowMajor)] {
        for medium_name in ["homogeneous", "two_layer(6)"] {
            for plan_name in ["auto", "manual"] {
                let tag = format!(
                    "{}x{}x{}-{layout_name}-{medium_name}-{plan_name}",
                    shape.0, shape.1, shape.2
                );
                let (platform, ctx) = context(&tag);
                let node = platform.node();
                let plan = match plan_name {
                    "auto" => FdmPlan::Auto,
                    _ => FdmPlan::Manual(node.cpu().expect("paper node has a CPU"), node.gpus()[0]),
                };
                let medium = match medium_name {
                    "homogeneous" => FdmConfig::default().medium,
                    _ => Medium::two_layer(6),
                };
                let cfg = FdmConfig {
                    dims: Dims::new(shape.0, shape.1, shape.2),
                    layout,
                    iterations: ITERATIONS,
                    medium,
                    ..FdmConfig::default()
                };
                let mut app = FdmApp::new(&ctx, cfg, &plan).expect("app builds");
                app.run().expect("app runs");
                let region = |r: usize| std::array::from_fn(|f| fnv1a(&app.field(r, f)));
                computed.push((layout_name, medium_name, plan_name, shape, region(0), region(1)));
            }
        }
    }
    let pinned: Vec<Row> = PINNED.iter().filter(|row| row.3 == shape).copied().collect();
    assert!(
        computed == pinned,
        "final fields moved; computed:\n{}pinned:\n{}",
        render(&computed),
        render(&pinned)
    );
}

#[test]
fn default_grid_fields_are_pinned() {
    pin((32, 32, 16));
}

#[test]
fn a_one_cell_deep_slab_is_pinned() {
    pin((5, 2, 1));
}

#[test]
fn a_one_cell_wide_slab_is_pinned() {
    pin((1, 3, 4));
}

#[test]
fn a_two_cell_column_across_the_interface_is_pinned() {
    pin((2, 1, 9));
}
