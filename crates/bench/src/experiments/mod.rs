//! One module per table/figure of the paper's evaluation section.

pub mod ablation;
pub mod common;
pub mod fig10;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod tables;
