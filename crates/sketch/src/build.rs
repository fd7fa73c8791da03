//! Building a [`DatasetSketch`] from a relation — the provider-side,
//! offline step of Figure 1's blue workflow.

use crate::error::{Result, SketchError};
use crate::keyed::KeyedSketch;
use mileena_relation::{DataType, Relation};
use mileena_semiring::{grouped_triples, triple_of, CovarTriple};
use serde::{Deserialize, Serialize};

/// Qualify a provider column name with its dataset:
/// `qualify("taxi", "fare") == "taxi.fare"`.
pub fn qualify(dataset: &str, column: &str) -> String {
    format!("{dataset}.{column}")
}

/// What to sketch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SketchConfig {
    /// Candidate join-key columns. `None` = every keyable (int/str) column
    /// whose distinct-count heuristic passes [`SketchConfig::max_key_ratio`].
    pub key_columns: Option<Vec<String>>,
    /// Feature columns. `None` = every numeric column.
    pub feature_columns: Option<Vec<String>>,
    /// Heuristic: a column is a plausible join key only if
    /// `distinct/rows ≥ min_key_ratio` (near-constant columns join
    /// everything to everything and explode the sketch product).
    pub min_key_ratio: f64,
    /// Upper bound on distinct keys per keyed sketch; columns exceeding it
    /// are skipped (the paper's `d ≪ n` regime).
    pub max_keys: usize,
    /// Qualify feature names as `"<dataset>.<column>"`. Providers must (it
    /// guarantees disjoint feature spaces for the semi-ring product);
    /// requesters keep plain names.
    pub qualify_features: bool,
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig {
            key_columns: None,
            feature_columns: None,
            min_key_ratio: 0.0,
            max_keys: 100_000,
            qualify_features: true,
        }
    }
}

impl SketchConfig {
    /// Config for requester-side sketches (plain feature names).
    pub fn requester() -> Self {
        SketchConfig { qualify_features: false, ..Default::default() }
    }
}

/// All pre-computed sketches of one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSketch {
    /// Dataset name.
    pub name: String,
    /// Original (unqualified) feature column names, in sketch order.
    pub raw_features: Vec<String>,
    /// Feature names as used inside triples (qualified for providers).
    pub features: Vec<String>,
    /// `γ(R)` over the feature columns (horizontal augmentation sketch).
    pub full: CovarTriple,
    /// `γ_j(R)` per candidate join key `j` (vertical augmentation sketches).
    pub keyed: Vec<KeyedSketch>,
    /// Row count of the source relation.
    pub row_count: usize,
}

impl DatasetSketch {
    /// The keyed sketch for a join key column, if sketched.
    pub fn keyed_for(&self, key_column: &str) -> Result<&KeyedSketch> {
        self.keyed.iter().find(|k| k.key_column == key_column).ok_or_else(|| {
            SketchError::KeyNotSketched { dataset: self.name.clone(), key: key_column.to_string() }
        })
    }

    /// Join-key columns that have sketches.
    pub fn key_columns(&self) -> Vec<&str> {
        self.keyed.iter().map(|k| k.key_column.as_str()).collect()
    }

    /// Serialize to the JSON wire format used for uploads.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| SketchError::Serde(e.to_string()))
    }

    /// Parse the JSON wire format.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| SketchError::Serde(e.to_string()))
    }
}

/// Build every sketch for `relation` according to `config`.
pub fn build_sketch(relation: &Relation, config: &SketchConfig) -> Result<DatasetSketch> {
    let name = relation.name().to_string();

    // Resolve feature columns.
    let raw_features: Vec<String> = match &config.feature_columns {
        Some(cols) => cols.clone(),
        None => relation.schema().numeric_names().into_iter().map(|s| s.to_string()).collect(),
    };
    if raw_features.is_empty() {
        return Err(SketchError::NoNumericColumns(name));
    }
    let feature_refs: Vec<&str> = raw_features.iter().map(|s| s.as_str()).collect();

    let features: Vec<String> = if config.qualify_features {
        raw_features.iter().map(|c| qualify(&name, c)).collect()
    } else {
        raw_features.clone()
    };

    // Full triple, then rename into the qualified feature space.
    let mut full = triple_of(relation, &feature_refs)?;
    if config.qualify_features {
        full = full.rename_features(|c| qualify(&name, c));
    }

    // Resolve key columns.
    let key_cols: Vec<String> = match &config.key_columns {
        Some(cols) => cols.clone(),
        None => {
            let n = relation.num_rows().max(1) as f64;
            relation
                .schema()
                .fields()
                .iter()
                .filter(|f| f.data_type.is_keyable())
                .filter(|f| {
                    let col = relation.column(&f.name).expect("schema-listed column");
                    let distinct = col.distinct_count();
                    distinct as f64 / n >= config.min_key_ratio && distinct <= config.max_keys
                })
                .map(|f| f.name.clone())
                .collect()
        }
    };

    let mut keyed = Vec::with_capacity(key_cols.len());
    for key in &key_cols {
        // A key column that is also a feature is fine for int keys: the
        // grouped sketch features exclude the key itself only if the caller
        // configured features that way; default features are all numerics.
        let groups = grouped_triples(relation, &[key.as_str()], &feature_refs)?;
        if groups.len() > config.max_keys {
            continue;
        }
        let sketch = KeyedSketch::try_new(key.clone(), groups)?;
        let sketch = if config.qualify_features {
            // Schema-level rename: O(m) on the shared schema, not O(d·m)
            // per-triple clones.
            KeyedSketch::from_arena(key.clone(), sketch.arena().renamed(|c| qualify(&name, c)))
        } else {
            sketch
        };
        keyed.push(sketch);
    }

    Ok(DatasetSketch { name, raw_features, features, full, keyed, row_count: relation.num_rows() })
}

/// Classify columns the way `build_sketch`'s defaults do — exposed for the
/// discovery layer so both sides agree on what is a key.
pub fn default_key_columns(relation: &Relation, config: &SketchConfig) -> Vec<String> {
    let n = relation.num_rows().max(1) as f64;
    relation
        .schema()
        .fields()
        .iter()
        .filter(|f| matches!(f.data_type, DataType::Int | DataType::Str))
        .filter(|f| {
            let col = relation.column(&f.name).expect("schema-listed column");
            let distinct = col.distinct_count();
            distinct as f64 / n >= config.min_key_ratio && distinct <= config.max_keys
        })
        .map(|f| f.name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mileena_relation::RelationBuilder;

    fn rel() -> Relation {
        RelationBuilder::new("taxi")
            .int_col("zone", &[1, 1, 2])
            .str_col("borough", &["bk", "bk", "qn"])
            .float_col("fare", &[10.0, 12.0, 20.0])
            .float_col("tip", &[1.0, 2.0, 3.0])
            .build()
            .unwrap()
    }

    #[test]
    fn builds_full_and_keyed() {
        let s = build_sketch(&rel(), &SketchConfig::default()).unwrap();
        assert_eq!(s.row_count, 3);
        // zone is Int (numeric) so it is a feature too by default.
        assert_eq!(s.features, vec!["taxi.zone", "taxi.fare", "taxi.tip"]);
        assert_eq!(s.full.c, 3.0);
        let keys = s.key_columns();
        assert!(keys.contains(&"zone") && keys.contains(&"borough"));
        let kz = s.keyed_for("zone").unwrap();
        assert_eq!(kz.num_keys(), 2);
        assert!(s.keyed_for("fare").is_err());
    }

    #[test]
    fn qualified_names_make_products_safe() {
        let s1 = build_sketch(&rel(), &SketchConfig::default()).unwrap();
        let r2 = rel().with_name("taxi2");
        let s2 = build_sketch(&r2, &SketchConfig::default()).unwrap();
        // Same underlying columns, but qualified names are disjoint → mul ok.
        assert!(s1.full.mul(&s2.full).is_ok());
    }

    #[test]
    fn requester_config_keeps_plain_names() {
        let s = build_sketch(&rel(), &SketchConfig::requester()).unwrap();
        assert_eq!(s.features, vec!["zone", "fare", "tip"]);
    }

    #[test]
    fn explicit_columns_respected() {
        let cfg = SketchConfig {
            key_columns: Some(vec!["borough".into()]),
            feature_columns: Some(vec!["fare".into()]),
            ..Default::default()
        };
        let s = build_sketch(&rel(), &cfg).unwrap();
        assert_eq!(s.features, vec!["taxi.fare"]);
        assert_eq!(s.key_columns(), vec!["borough"]);
    }

    #[test]
    fn max_keys_skips_high_cardinality() {
        let cfg = SketchConfig { max_keys: 1, ..Default::default() };
        let s = build_sketch(&rel(), &cfg).unwrap();
        assert!(s.keyed.is_empty());
    }

    #[test]
    fn no_numeric_columns_is_an_error() {
        let r = RelationBuilder::new("s").str_col("a", &["x"]).build().unwrap();
        assert!(matches!(
            build_sketch(&r, &SketchConfig::default()),
            Err(SketchError::NoNumericColumns(_))
        ));
    }

    #[test]
    fn json_roundtrip() {
        let s = build_sketch(&rel(), &SketchConfig::default()).unwrap();
        let json = s.to_json().unwrap();
        let back = DatasetSketch::from_json(&json).unwrap();
        assert_eq!(s, back);
    }
}
