//! The model zoo: trained weights cached on disk as store records.

use std::fs;
use std::path::{Path, PathBuf};

use revelio_core::wire::Codec;
use revelio_gnn::{Gnn, GnnConfig};
use revelio_store::{fingerprint_model, ModelRecord};

/// The model zoo: a disk cache of trained model weights, so the harness
/// binaries train each (dataset, architecture) pair only once.
///
/// An entry `<key>.model` holds one store [`ModelRecord`] (model id `0`) in
/// the codec the wire and the store log share. Loading it checks, in order,
/// that the record decodes exactly, that its config is the expected one
/// (before any weight is allocated), that its fingerprint matches its
/// content, and that the weights fit the architecture and are finite. An
/// entry failing any check is ignored and [`ModelZoo::get_or_train`]
/// retrains over it.
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
        self.dir.join(format!("{key}.model"))
    }

    /// Whether an entry exists under `key` (well-formed or not).
    pub fn contains(&self, key: &str) -> bool {
        self.path(key).exists()
    }

    /// Removes a cached model (no-op if absent).
    pub fn evict(&self, key: &str) {
        let _ = fs::remove_file(self.path(key));
    }

    /// Loads the model cached under `key` if its entry passes every check
    /// and its config is `expected`, so a cache from changed
    /// hyperparameters retrains instead of silently mismatching. The model
    /// comes back frozen ([`Gnn::freeze`]), ready to explain.
    pub fn load(&self, key: &str, expected: &GnnConfig) -> Option<Gnn> {
        let bytes = fs::read(self.path(key)).ok()?;
        let rec = ModelRecord::from_bytes(&bytes).ok()?;
        if rec.config != *expected || rec.fingerprint != fingerprint_model(&rec.config, &rec.state)
        {
            return None;
        }
        let model = Gnn::new(rec.config);
        model.check_state(&rec.state).ok()?;
        model.load_state(&rec.state);
        model.freeze();
        Some(model)
    }

    /// Saves a model under `key`.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn save(&self, key: &str, model: &Gnn) {
        let config = model.config().clone();
        let state = model.state_dict();
        let rec = ModelRecord {
            model_id: 0,
            fingerprint: fingerprint_model(&config, &state),
            config,
            state,
        };
        fs::write(self.path(key), rec.to_bytes()).expect("write model zoo entry");
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
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use revelio_gnn::{GnnKind, Task};
    use revelio_graph::{Graph, Target};

    fn tmpzoo(name: &str) -> ModelZoo {
        let dir =
            std::env::temp_dir().join(format!("revelio_zoo_test_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ModelZoo::open(dir)
    }

    fn toy_graph() -> Graph {
        let mut b = Graph::builder(3, 2);
        b.undirected_edge(0, 1).undirected_edge(1, 2);
        b.build()
    }

    fn gcn(seed: u64) -> GnnConfig {
        GnnConfig::standard(GnnKind::Gcn, Task::NodeClassification, 2, 3, seed)
    }

    /// Writes `state` under `key` as a record whose fingerprint matches
    /// it, so only the later checks can reject it.
    fn write_record(zoo: &ModelZoo, key: &str, config: &GnnConfig, state: Vec<Vec<f32>>) {
        let rec = ModelRecord {
            model_id: 0,
            fingerprint: fingerprint_model(config, &state),
            config: config.clone(),
            state,
        };
        fs::write(zoo.path(key), rec.to_bytes()).unwrap();
    }

    /// Whether `get_or_train` on `key` trains instead of loading.
    fn retrains(zoo: &ModelZoo, key: &str, config: &GnnConfig) -> bool {
        let mut trained = false;
        let _ = zoo.get_or_train(key, config.clone(), |_| trained = true);
        trained
    }

    #[test]
    fn save_load_roundtrip() {
        let zoo = tmpzoo("roundtrip");
        let cfg = gcn(5);
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
    fn roundtrip_is_bit_exact() {
        let zoo = tmpzoo("bits");
        let cfg = GnnConfig::standard(GnnKind::Gat, Task::GraphClassification, 3, 2, 9);
        let m = Gnn::new(cfg.clone());
        zoo.save("m", &m);
        let bits = |m: &Gnn| -> Vec<Vec<u32>> {
            m.state_dict()
                .iter()
                .map(|t| t.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let loaded = zoo.load("m", &cfg).expect("cached model loads");
        assert_eq!(bits(&m), bits(&loaded));
    }

    #[test]
    fn config_mismatch_invalidates_cache() {
        let zoo = tmpzoo("mismatch");
        let cfg = gcn(5);
        zoo.save("m", &Gnn::new(cfg.clone()));
        let other = GnnConfig {
            hidden_dim: 64,
            ..cfg
        };
        assert!(zoo.load("m", &other).is_none());
        assert!(retrains(&zoo, "m", &other));
    }

    #[test]
    fn get_or_train_trains_once() {
        let zoo = tmpzoo("once");
        let cfg = GnnConfig::standard(GnnKind::Gin, Task::NodeClassification, 2, 3, 6);
        let mut trained = 0;
        let _ = zoo.get_or_train("k", cfg.clone(), |_| trained += 1);
        let _ = zoo.get_or_train("k", cfg, |_| trained += 1);
        assert_eq!(trained, 1);
    }

    #[test]
    fn evict_removes_entry() {
        let zoo = tmpzoo("evict");
        zoo.save("e", &Gnn::new(gcn(7)));
        zoo.evict("e");
        assert!(!zoo.contains("e"));
    }

    #[test]
    fn flipped_weight_byte_forces_a_retrain() {
        let zoo = tmpzoo("flip");
        let cfg = gcn(5);
        zoo.save("m", &Gnn::new(cfg.clone()));
        let mut bytes = fs::read(zoo.path("m")).unwrap();
        // The last byte belongs to the last weight: the record still
        // decodes, but no longer matches its fingerprint.
        *bytes.last_mut().unwrap() ^= 0x01;
        fs::write(zoo.path("m"), &bytes).unwrap();
        assert!(ModelRecord::from_bytes(&bytes).is_ok());
        assert!(retrains(&zoo, "m", &cfg));
        assert!(zoo.load("m", &cfg).is_some(), "the retrained entry loads");
    }

    #[test]
    fn truncated_entry_forces_a_retrain() {
        let zoo = tmpzoo("trunc");
        let cfg = gcn(5);
        zoo.save("m", &Gnn::new(cfg.clone()));
        let bytes = fs::read(zoo.path("m")).unwrap();
        fs::write(zoo.path("m"), &bytes[..bytes.len() - 3]).unwrap();
        assert!(retrains(&zoo, "m", &cfg));
    }

    #[test]
    fn misshapen_state_forces_a_retrain() {
        let zoo = tmpzoo("shape");
        let cfg = gcn(5);
        let state = Gnn::new(cfg.clone()).state_dict();
        let mut missing = state.clone();
        missing.pop();
        write_record(&zoo, "missing", &cfg, missing);
        assert!(retrains(&zoo, "missing", &cfg));
        let mut wide = state;
        wide.last_mut().unwrap().push(0.0);
        write_record(&zoo, "wide", &cfg, wide);
        assert!(retrains(&zoo, "wide", &cfg));
    }

    #[test]
    fn non_finite_weight_forces_a_retrain() {
        let zoo = tmpzoo("nan");
        let cfg = gcn(5);
        for (key, bad) in [("nan", f32::NAN), ("inf", f32::INFINITY)] {
            let mut state = Gnn::new(cfg.clone()).state_dict();
            state[0][0] = bad;
            write_record(&zoo, key, &cfg, state);
            assert!(zoo.load(key, &cfg).is_none(), "{key} weight must not load");
            assert!(retrains(&zoo, key, &cfg));
        }
    }
}
