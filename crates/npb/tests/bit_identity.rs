//! The net under `crates/npb`'s arithmetic: every code's final state, bit
//! for bit.
//!
//! `SpApp::verify` and `MgApp::verify` call the same `sweep_axis` /
//! `stencil27` their kernels call, and `BtApp::verify` checks finiteness and
//! a bound, so a rewrite of a kernel body that changed a rounding — or a
//! whole term — would still "verify". This file holds the values instead:
//! FNV-1a-64 over each queue's final state (`f64::to_bits`, little endian)
//! for all six codes at class S and at one larger class, over four queues
//! (the count Table II allows every code), under `QueuePlan::Auto` — where
//! EP and MG launches really split across devices — and under a manual plan
//! that cycles CPU, GPU0, GPU1.
//!
//! **Never regenerate [`PINNED`] from the current code.** The constants were
//! printed by this very file run against the `crates/npb` of commit f306a1c
//! (PR 22) — the parent of the change that took the nested thread pool, the
//! per-line heap vectors and the per-neighbour divisions out of the bodies —
//! plus nothing but the read-only `state` accessors on CG, EP, FT and MG.
//! They must read the same in debug and release builds: floating-point
//! results do not depend on the profile. On a mismatch the failure message
//! is the whole table as computed, in the constants' own format — diff it
//! against [`PINNED`] to see which code, class, plan and queue moved.

use clrt::Platform;
use hwsim::DeviceId;
use multicl::{ContextSchedPolicy, MulticlContext, ProfileCache, SchedOptions};
use npb::{bt::BtApp, cg::CgApp, ep::EpApp, ft::FtApp, mg::MgApp, sp::SpApp, Class, QueuePlan};
use std::fmt::Write as _;

const QUEUES: usize = 4;

/// `(code, class, plan, one digest per queue)`, recorded at commit f306a1c.
#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("BT", Class::S, "auto", [0x8bc5_7f06_91e3_b013, 0xea0d_8c97_ddf3_6391, 0xc552_78f4_d243_2a6f, 0xf214_b37f_1155_b64e]),
    ("BT", Class::S, "manual", [0x8bc5_7f06_91e3_b013, 0xea0d_8c97_ddf3_6391, 0xc552_78f4_d243_2a6f, 0xf214_b37f_1155_b64e]),
    ("BT", Class::A, "auto", [0xfacc_efc8_1d84_2e06, 0x52a0_1160_86ce_e2c7, 0x05c2_9f26_da33_2295, 0x47e2_7e2a_5bce_3603]),
    ("BT", Class::A, "manual", [0xfacc_efc8_1d84_2e06, 0x52a0_1160_86ce_e2c7, 0x05c2_9f26_da33_2295, 0x47e2_7e2a_5bce_3603]),
    ("CG", Class::S, "auto", [0xac84_52be_b9d6_b82e, 0x551d_7162_a732_e880, 0x6be2_2eda_7015_74bb, 0x5e0d_8a5a_5110_0e18]),
    ("CG", Class::S, "manual", [0xac84_52be_b9d6_b82e, 0x551d_7162_a732_e880, 0x6be2_2eda_7015_74bb, 0x5e0d_8a5a_5110_0e18]),
    ("CG", Class::A, "auto", [0x2041_7b61_5fe0_ac25, 0x52dc_91b2_58d8_161c, 0x4f4a_d93b_f675_4b5d, 0x48cb_817b_df11_fffb]),
    ("CG", Class::A, "manual", [0x2041_7b61_5fe0_ac25, 0x52dc_91b2_58d8_161c, 0x4f4a_d93b_f675_4b5d, 0x48cb_817b_df11_fffb]),
    ("EP", Class::S, "auto", [0x4e69_7d7e_8e31_9826, 0x70b4_8244_0b4f_8f10, 0xc66e_d81f_876e_1743, 0x35a4_69f8_e4d3_1804]),
    ("EP", Class::S, "manual", [0x4e69_7d7e_8e31_9826, 0x70b4_8244_0b4f_8f10, 0xc66e_d81f_876e_1743, 0x35a4_69f8_e4d3_1804]),
    ("EP", Class::A, "auto", [0x1f4a_84cc_5f9b_efee, 0x6bd2_8631_b777_d617, 0x16d5_a614_1733_0a63, 0x0d7f_c405_8d0d_64ba]),
    ("EP", Class::A, "manual", [0x1f4a_84cc_5f9b_efee, 0x6bd2_8631_b777_d617, 0x16d5_a614_1733_0a63, 0x0d7f_c405_8d0d_64ba]),
    ("FT", Class::S, "auto", [0x0bb3_71b9_6bc0_a3d3, 0x0167_93b5_9f12_983a, 0xd356_1e79_06d9_e43f, 0x6314_19e8_4629_68eb]),
    ("FT", Class::S, "manual", [0x0bb3_71b9_6bc0_a3d3, 0x0167_93b5_9f12_983a, 0xd356_1e79_06d9_e43f, 0x6314_19e8_4629_68eb]),
    ("FT", Class::W, "auto", [0x77f5_7cc7_0ee5_c58d, 0x7815_1c1d_d202_7868, 0xac0b_3014_60ee_6d52, 0xf868_5390_1fc9_ea47]),
    ("FT", Class::W, "manual", [0x77f5_7cc7_0ee5_c58d, 0x7815_1c1d_d202_7868, 0xac0b_3014_60ee_6d52, 0xf868_5390_1fc9_ea47]),
    ("MG", Class::S, "auto", [0xeda5_8691_0e2d_8241, 0xb3b6_e117_b298_3e3d, 0x7dbd_ebc2_ea09_500f, 0x8c18_9d63_428a_876f]),
    ("MG", Class::S, "manual", [0xeda5_8691_0e2d_8241, 0xb3b6_e117_b298_3e3d, 0x7dbd_ebc2_ea09_500f, 0x8c18_9d63_428a_876f]),
    ("MG", Class::A, "auto", [0x5673_0e03_0450_aaa2, 0xf2c1_9556_50b1_997d, 0x2dbf_d3cc_4fd7_7af5, 0x8c4e_05ab_79dd_5c4e]),
    ("MG", Class::A, "manual", [0x5673_0e03_0450_aaa2, 0xf2c1_9556_50b1_997d, 0x2dbf_d3cc_4fd7_7af5, 0x8c4e_05ab_79dd_5c4e]),
    ("SP", Class::S, "auto", [0xa6df_fd31_d572_3c29, 0x5b8a_55d2_d964_1a55, 0xcbc9_f2de_7e76_d378, 0x74b9_81b0_99d1_c716]),
    ("SP", Class::S, "manual", [0xa6df_fd31_d572_3c29, 0x5b8a_55d2_d964_1a55, 0xcbc9_f2de_7e76_d378, 0x74b9_81b0_99d1_c716]),
    ("SP", Class::A, "auto", [0x2cf8_fcca_d00b_6e0e, 0x8b5c_6035_4d75_46fe, 0xba40_078e_298b_d5e3, 0xcb4c_4a6c_7ef0_5ede]),
    ("SP", Class::A, "manual", [0x2cf8_fcca_d00b_6e0e, 0x8b5c_6035_4d75_46fe, 0xba40_078e_298b_d5e3, 0xcb4c_4a6c_7ef0_5ede]),
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

fn context(tag: &str) -> (Platform, MulticlContext) {
    let platform = Platform::paper_node();
    let dir = std::env::temp_dir().join(format!("npb-bit-identity-{tag}-{}", std::process::id()));
    let options = SchedOptions { profile_cache: ProfileCache::at(dir), ..SchedOptions::default() };
    let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
        .expect("context over the paper node");
    (platform, ctx)
}

/// CPU, GPU0, GPU1 — cycled over the four queues by `QueuePlan::Manual`.
fn manual_devices(platform: &Platform) -> Vec<DeviceId> {
    let node = platform.node();
    std::iter::once(node.cpu().expect("paper node has a CPU")).chain(node.gpus()).collect()
}

type Row = (&'static str, Class, &'static str, [u64; QUEUES]);

/// Rows the way [`PINNED`] spells them, so a failure message can be diffed
/// against the constants.
fn render(rows: &[Row]) -> String {
    let mut text = String::new();
    for (code, class, plan, digests) in rows {
        let digests: Vec<String> = digests.iter().map(|&d| hex(d)).collect();
        writeln!(text, "    (\"{code}\", Class::{class}, \"{plan}\", [{}]),", digests.join(", "))
            .expect("write to a String");
    }
    text
}

/// Run one code at both classes under both plans and compare the digests
/// with [`PINNED`]; returns the kernels split per `Auto` run, smaller class
/// first.
macro_rules! pin {
    ($app:ty, $code:literal, $larger:expr) => {{
        let mut computed: Vec<Row> = Vec::new();
        let mut split = Vec::new();
        for class in [Class::S, $larger] {
            for plan_name in ["auto", "manual"] {
                let (platform, ctx) = context(&format!("{}-{class}-{plan_name}", $code));
                let plan = match plan_name {
                    "auto" => QueuePlan::Auto,
                    _ => QueuePlan::Manual(manual_devices(&platform)),
                };
                let mut app = <$app>::new(&ctx, class, QUEUES, &plan).expect("app builds");
                app.run().expect("app runs");
                computed.push((
                    $code,
                    class,
                    plan_name,
                    std::array::from_fn(|qi| fnv1a(&app.state(qi))),
                ));
                if plan_name == "auto" {
                    split.push(ctx.stats().kernels_split);
                }
            }
        }
        let pinned: Vec<Row> = PINNED.iter().filter(|row| row.0 == $code).copied().collect();
        assert!(
            computed == pinned,
            "final states moved (kernels split per auto run: {split:?}); computed:\n{}pinned:\n{}",
            render(&computed),
            render(&pinned)
        );
        split
    }};
}

#[test]
fn bt_final_state_is_pinned() {
    pin!(BtApp, "BT", Class::A);
}

#[test]
fn cg_final_state_is_pinned() {
    pin!(CgApp, "CG", Class::A);
}

#[test]
fn ep_final_state_is_pinned_and_splits() {
    let split = pin!(EpApp, "EP", Class::A);
    assert!(split[1] > 0, "an EP.A launch must really split: {split:?}");
}

#[test]
fn ft_final_state_is_pinned() {
    pin!(FtApp, "FT", Class::W);
}

#[test]
fn mg_final_state_is_pinned_and_splits() {
    let split = pin!(MgApp, "MG", Class::A);
    assert!(split.iter().all(|&n| n > 0), "MG launches must really split: {split:?}");
}

#[test]
fn sp_final_state_is_pinned() {
    pin!(SpApp, "SP", Class::A);
}
