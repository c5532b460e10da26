//! Figure 9: FDM-Seismology performance overview — nine manual queue–device
//! mappings, the ROUND_ROBIN global policy, and AUTO_FIT, for both the
//! column-major and row-major code versions.
//!
//! Expected shape: column-major best on (CPU, CPU) and worst on a single
//! GPU (~2.7× apart); row-major best split across the two GPUs and worst on
//! (CPU, CPU) (~2.3× apart). AUTO_FIT matches the best mapping for *both*
//! versions with negligible overhead; ROUND_ROBIN always splits across the
//! GPUs, which is right for row-major but wrong for column-major.

use crate::harness::{fresh_context, fresh_platform, Table};
use hwsim::DeviceId;
use multicl::ContextSchedPolicy;
use seismo::{FdmApp, FdmConfig, FdmPlan, Layout};

/// One mapping's mean iteration time.
#[derive(Debug, Clone)]
pub struct Fig9Cell {
    /// Schedule label, e.g. "(G0, C)" or "Auto Fit".
    pub label: String,
    /// Mean steady-state iteration time (ms).
    pub iter_ms: f64,
    /// Devices the two queues ended on.
    pub devices: (DeviceId, DeviceId),
}

/// Results for one layout.
#[derive(Debug, Clone)]
pub struct Fig9Column {
    /// The code version.
    pub layout: Layout,
    /// All schedules, manual first, then Round Robin and Auto Fit.
    pub cells: Vec<Fig9Cell>,
}

impl Fig9Column {
    /// The best manual mapping's time.
    pub fn best_manual_ms(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| !c.label.contains("Fit") && !c.label.contains("Robin"))
            .map(|c| c.iter_ms)
            .fold(f64::INFINITY, f64::min)
    }

    /// A named cell.
    pub fn cell(&self, label: &str) -> &Fig9Cell {
        self.cells.iter().find(|c| c.label == label).expect("cell exists")
    }
}

fn run_once(
    cfg: &FdmConfig,
    plan: &FdmPlan,
    policy: ContextSchedPolicy,
) -> (f64, (DeviceId, DeviceId)) {
    let platform = fresh_platform();
    let ctx = fresh_context(&platform, policy, true);
    let mut app = FdmApp::new(&ctx, cfg.clone(), plan).expect("app builds");
    app.run().expect("app runs");
    assert!(app.is_finite(), "wavefield blew up");
    (app.steady_iteration_time().as_millis_f64(), app.devices())
}

/// Run the full sweep for one layout.
pub fn run_layout(layout: Layout, iterations: usize) -> Fig9Column {
    let node = hwsim::NodeConfig::paper_node();
    let cpu = node.cpu().unwrap();
    let (g0, g1) = (node.gpus()[0], node.gpus()[1]);
    let cfg = FdmConfig { layout, iterations, ..FdmConfig::default() };
    let name = |d: DeviceId| -> &'static str {
        if d == cpu {
            "C"
        } else if d == g0 {
            "G0"
        } else {
            "G1"
        }
    };
    // The paper's nine manual (region-1, region-2) combinations.
    let manual = [
        (g0, g0),
        (g1, g1),
        (cpu, cpu),
        (g0, g1),
        (g0, cpu),
        (g1, g0),
        (g1, cpu),
        (cpu, g0),
        (cpu, g1),
    ];
    let mut cells = Vec::new();
    for (d1, d2) in manual {
        let (ms, devs) = run_once(&cfg, &FdmPlan::Manual(d1, d2), ContextSchedPolicy::AutoFit);
        cells.push(Fig9Cell {
            label: format!("({}, {})", name(d1), name(d2)),
            iter_ms: ms,
            devices: devs,
        });
    }
    let (ms, devs) = run_once(&cfg, &FdmPlan::Auto, ContextSchedPolicy::RoundRobin);
    cells.push(Fig9Cell { label: "Round Robin".into(), iter_ms: ms, devices: devs });
    let (ms, devs) = run_once(&cfg, &FdmPlan::Auto, ContextSchedPolicy::AutoFit);
    cells.push(Fig9Cell { label: "Auto Fit".into(), iter_ms: ms, devices: devs });
    Fig9Column { layout, cells }
}

/// Run both layouts.
pub fn run(iterations: usize) -> Vec<Fig9Column> {
    vec![run_layout(Layout::ColumnMajor, iterations), run_layout(Layout::RowMajor, iterations)]
}

/// Render the paper-style table.
pub fn table(columns: &[Fig9Column]) -> Table {
    let mut t = Table::new(
        "Figure 9: FDM-Seismology time per iteration (ms)",
        &["Schedule", "Column-major", "Row-major"],
    );
    let labels: Vec<String> = columns[0].cells.iter().map(|c| c.label.clone()).collect();
    for label in &labels {
        let mut cells = vec![label.clone()];
        for col in columns {
            cells.push(format!("{:.3}", col.cell(label).iter_ms));
        }
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_major_best_is_cpu_cpu_and_single_gpu_is_worst() {
        let col = run_layout(Layout::ColumnMajor, 4);
        let best = col.best_manual_ms();
        assert!(
            (col.cell("(C, C)").iter_ms - best).abs() < 1e-9,
            "(C,C) must be the best manual mapping"
        );
        let single_gpu = col.cell("(G0, G0)").iter_ms;
        let ratio = single_gpu / best;
        assert!(ratio > 2.0 && ratio < 4.0, "col worst/best = {ratio:.2} (paper: 2.7)");
        // Auto Fit matches the best mapping.
        let auto = col.cell("Auto Fit");
        assert!(auto.iter_ms <= best * 1.05, "autofit {:.3} vs best {best:.3}", auto.iter_ms);
        // Round Robin splits across GPUs — suboptimal for this version.
        let rr = col.cell("Round Robin");
        assert!(rr.iter_ms > auto.iter_ms * 1.2, "RR should lose on column-major");
    }

    #[test]
    fn row_major_best_is_dual_gpu() {
        let row = run_layout(Layout::RowMajor, 4);
        let best = row.best_manual_ms();
        let dual = row.cell("(G0, G1)").iter_ms.min(row.cell("(G1, G0)").iter_ms);
        assert!((dual - best).abs() < 1e-9, "dual-GPU must be the best manual mapping");
        let cc = row.cell("(C, C)").iter_ms;
        let ratio = cc / best;
        assert!(ratio > 1.5 && ratio < 5.0, "row worst/best = {ratio:.2} (paper: 2.3)");
        let auto = row.cell("Auto Fit");
        assert!(auto.iter_ms <= best * 1.05);
    }
}
