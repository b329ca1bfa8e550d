//! The model zoo: a disk cache of trained model weights so harness binaries
//! train each (dataset, architecture) pair only once.

use std::fs;
use std::path::{Path, PathBuf};

use crate::json::{self, Json};
use crate::model::{Gnn, GnnConfig, GnnKind, Task};

/// Serialises a model into the zoo's JSON cache format:
/// `{"config":{...},"params":[[...],...]}` with shortest-round-trip floats.
fn to_json(config: &GnnConfig, params: &[Vec<f32>]) -> String {
    let mut out = String::with_capacity(64 + params.iter().map(Vec::len).sum::<usize>() * 12);
    out.push_str("{\"config\":{");
    out.push_str("\"kind\":");
    json::write_str(&mut out, config.kind.name());
    let task = match config.task {
        Task::NodeClassification => "node",
        Task::GraphClassification => "graph",
    };
    out.push_str(",\"task\":");
    json::write_str(&mut out, task);
    use std::fmt::Write as _;
    let _ = write!(
        out,
        ",\"in_dim\":{},\"hidden_dim\":{},\"num_classes\":{},\"num_layers\":{},\"heads\":{},\"seed\":{}",
        config.in_dim,
        config.hidden_dim,
        config.num_classes,
        config.num_layers,
        config.heads,
        config.seed
    );
    out.push_str("},\"params\":[");
    for (i, buf) in params.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &v) in buf.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_f32(&mut out, v);
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Parses the zoo cache format back; `None` on any malformed input.
fn from_json(text: &str) -> Option<(GnnConfig, Vec<Vec<f32>>)> {
    let doc = json::parse(text)?;
    let cfg = doc.get("config")?;
    let kind = match cfg.get("kind")?.as_str()? {
        "GCN" => GnnKind::Gcn,
        "GIN" => GnnKind::Gin,
        "GAT" => GnnKind::Gat,
        _ => return None,
    };
    let task = match cfg.get("task")?.as_str()? {
        "node" => Task::NodeClassification,
        "graph" => Task::GraphClassification,
        _ => return None,
    };
    let config = GnnConfig {
        kind,
        task,
        in_dim: cfg.get("in_dim")?.as_usize()?,
        hidden_dim: cfg.get("hidden_dim")?.as_usize()?,
        num_classes: cfg.get("num_classes")?.as_usize()?,
        num_layers: cfg.get("num_layers")?.as_usize()?,
        heads: cfg.get("heads")?.as_usize()?,
        seed: cfg.get("seed")?.as_u64()?,
    };
    let params = doc
        .get("params")?
        .as_arr()?
        .iter()
        .map(|buf| {
            buf.as_arr()?
                .iter()
                .map(Json::as_f32)
                .collect::<Option<Vec<f32>>>()
        })
        .collect::<Option<Vec<Vec<f32>>>>()?;
    Some((config, params))
}

/// A directory-backed cache of trained models keyed by string.
pub struct ModelZoo {
    dir: PathBuf,
}

impl ModelZoo {
    /// Opens (creating if needed) a zoo at `dir`.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> ModelZoo {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).expect("create model zoo directory");
        ModelZoo { dir }
    }

    /// The default zoo location under `target/`.
    pub fn default_location() -> ModelZoo {
        Self::open("target/model_zoo")
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Whether a model is cached under `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.path(key).exists()
    }

    /// Removes a cached model (no-op if absent).
    pub fn evict(&self, key: &str) {
        let _ = fs::remove_file(self.path(key));
    }

    /// Loads the model cached under `key`, if present and well-formed and
    /// its config matches `expected` (so stale caches from changed
    /// hyperparameters retrain instead of silently mismatching). The model
    /// comes back frozen ([`Gnn::freeze`]), ready to explain.
    pub fn load(&self, key: &str, expected: &GnnConfig) -> Option<Gnn> {
        let text = fs::read_to_string(self.path(key)).ok()?;
        let (config, params) = from_json(&text)?;
        if config != *expected {
            return None;
        }
        let model = Gnn::new(config);
        if model.params().len() != params.len()
            || model
                .params()
                .iter()
                .zip(&params)
                .any(|(p, s)| p.len() != s.len())
        {
            return None;
        }
        model.load_state(&params);
        model.freeze();
        Some(model)
    }

    /// Saves a model under `key`.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn save(&self, key: &str, model: &Gnn) {
        let text = to_json(model.config(), &model.state_dict());
        fs::write(self.path(key), text).expect("write model zoo entry");
    }

    /// Returns the cached model for `key`, or builds a fresh model with
    /// `config`, trains it with `train`, caches and returns it, frozen
    /// either way.
    pub fn get_or_train(&self, key: &str, config: GnnConfig, train: impl FnOnce(&Gnn)) -> Gnn {
        if let Some(m) = self.load(key, &config) {
            return m;
        }
        let model = Gnn::new(config);
        train(&model);
        model.freeze();
        self.save(key, &model);
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GnnKind, Task};
    use revelio_graph::{Graph, Target};

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("revelio_zoo_test_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn toy_graph() -> Graph {
        let mut b = Graph::builder(3, 2);
        b.undirected_edge(0, 1).undirected_edge(1, 2);
        b.build()
    }

    #[test]
    fn save_load_roundtrip() {
        let zoo = ModelZoo::open(tmpdir("roundtrip"));
        let cfg = GnnConfig::standard(GnnKind::Gcn, Task::NodeClassification, 2, 3, 5);
        let m = Gnn::new(cfg.clone());
        zoo.save("m", &m);
        assert!(zoo.contains("m"));
        let loaded = zoo.load("m", &cfg).expect("cached model loads");
        let g = toy_graph();
        assert_eq!(
            m.predict_probs(&g, Target::Node(0)),
            loaded.predict_probs(&g, Target::Node(0))
        );
    }

    #[test]
    fn config_mismatch_invalidates_cache() {
        let zoo = ModelZoo::open(tmpdir("mismatch"));
        let cfg = GnnConfig::standard(GnnKind::Gcn, Task::NodeClassification, 2, 3, 5);
        zoo.save("m", &Gnn::new(cfg.clone()));
        let other = GnnConfig {
            hidden_dim: 64,
            ..cfg
        };
        assert!(zoo.load("m", &other).is_none());
    }

    #[test]
    fn get_or_train_trains_once() {
        let zoo = ModelZoo::open(tmpdir("once"));
        let cfg = GnnConfig::standard(GnnKind::Gin, Task::NodeClassification, 2, 3, 6);
        let mut trained = 0;
        let _ = zoo.get_or_train("k", cfg.clone(), |_| trained += 1);
        let _ = zoo.get_or_train("k", cfg, |_| trained += 1);
        assert_eq!(trained, 1);
    }

    #[test]
    fn evict_removes_entry() {
        let zoo = ModelZoo::open(tmpdir("evict"));
        let cfg = GnnConfig::standard(GnnKind::Gcn, Task::NodeClassification, 2, 3, 7);
        zoo.save("e", &Gnn::new(cfg));
        zoo.evict("e");
        assert!(!zoo.contains("e"));
    }
}
