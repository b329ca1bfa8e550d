//! Evaluation harness: metrics, instance sampling, the method registry, and
//! report utilities backing every table and figure of the paper.

#![deny(clippy::print_stdout, clippy::print_stderr)]

mod auc;
mod fidelity;
mod instances;
mod methods;
mod models;
mod report;
mod viz;
mod zoo;

pub use auc::{roc_auc, try_roc_auc, NonFiniteScore};
pub use fidelity::{fidelity_minus, fidelity_plus, perturbed_probability};
pub use instances::{
    sample_instances, sample_instances_cached, try_sample_instances, try_sample_instances_cached,
    EvalInstance, SamplingConfig, SamplingError,
};
pub use methods::{
    flow_cap, is_flow_based, is_group_level, make_method, method_factory, revelio_batch_config,
    Effort, ALL_METHODS, FLOW_METHODS, GROUP_LEVEL_METHODS,
};
pub use models::{model_accuracy, model_key, train_config_for, trained_model};
pub use report::{experiments_dir, Table};
pub use viz::{explanation_dot, DotOptions};
pub use zoo::ModelZoo;
