//! Property-based tests for the document substrate.

use proptest::prelude::*;

use dspace_value::{diff, json, yaml, Change, ChangeOp, Path, Value};

/// The per-node-`Path` walk `diff` used before it reused one key stack:
/// kept as the reference the stack walk must match change for change.
fn reference_diff(old: &Value, new: &Value) -> Vec<Change> {
    fn walk(path: &Path, old: &Value, new: &Value, out: &mut Vec<Change>) {
        match (old, new) {
            (Value::Object(a), Value::Object(b)) => {
                for (k, va) in a {
                    match b.get(k) {
                        Some(vb) => walk(&path.child(k.clone()), va, vb, out),
                        None => out.push(Change {
                            path: path.child(k.clone()),
                            op: ChangeOp::Removed,
                            old: va.clone(),
                            new: Value::Null,
                        }),
                    }
                }
                for (k, vb) in b {
                    if !a.contains_key(k) {
                        out.push(Change {
                            path: path.child(k.clone()),
                            op: ChangeOp::Added,
                            old: Value::Null,
                            new: vb.clone(),
                        });
                    }
                }
            }
            (a, b) if a == b => {}
            (a, b) => out.push(Change {
                path: path.clone(),
                op: ChangeOp::Updated,
                old: a.clone(),
                new: b.clone(),
            }),
        }
    }
    let mut out = Vec::new();
    walk(&Path::root(), old, new, &mut out);
    out
}

/// Applies one edit to `doc`, steered by `pick`: descend into an existing
/// key, or add, remove or retype one. Array elements are edited in place
/// too, so arrays (atomic in a diff) also change.
fn mutate(doc: &mut Value, pick: &[usize], with: &Value) {
    let Some((&first, rest)) = pick.split_first() else {
        *doc = with.clone();
        return;
    };
    match doc {
        Value::Object(map) if !map.is_empty() => {
            let key = map.keys().nth(first % map.len()).cloned().unwrap();
            match first % 4 {
                0 => {
                    map.remove(&key);
                }
                1 => {
                    map.insert(format!("{key}_new"), with.clone());
                }
                _ => mutate(map.get_mut(&key).unwrap(), rest, with),
            }
        }
        Value::Array(items) if !items.is_empty() => {
            let n = items.len();
            mutate(&mut items[first % n], rest, with);
        }
        _ => *doc = with.clone(),
    }
}

/// A nested object-rooted document with edits of its own applied.
fn arb_edit_pair() -> impl Strategy<Value = (Value, Value)> {
    (
        prop::collection::btree_map("[a-z][a-z0-9]{0,3}", arb_value(), 0..6),
        prop::collection::vec((prop::collection::vec(0usize..64, 0..5), arb_value()), 0..6),
    )
        .prop_map(|(fields, edits)| {
            let old = Value::Object(fields);
            let mut new = old.clone();
            for (pick, with) in &edits {
                mutate(&mut new, pick, with);
            }
            (old, new)
        })
}

/// Strategy producing arbitrary JSON-like values of bounded depth.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        // Finite doubles that roundtrip through our integer-aware printer.
        (-1_000_000i64..1_000_000).prop_map(|n| Value::Num(n as f64)),
        (-1000.0f64..1000.0).prop_map(Value::Num),
        "[a-zA-Z0-9_ .:/-]{0,12}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
            prop::collection::btree_map("[a-z][a-z0-9_-]{0,6}", inner, 0..5)
                .prop_map(Value::Object),
        ]
    })
}

/// Strategy producing key-only paths.
fn arb_path() -> impl Strategy<Value = Path> {
    prop::collection::vec("[a-z][a-z0-9_]{0,5}", 1..4).prop_map(Path::keys)
}

proptest! {
    /// JSON serialization roundtrips: parse(to_string(v)) == v.
    #[test]
    fn json_roundtrip(v in arb_value()) {
        let s = json::to_string(&v);
        let back = json::parse(&s).unwrap();
        prop_assert_eq!(&v, &back);
        // Pretty form roundtrips too.
        let pretty = json::to_string_pretty(&v);
        prop_assert_eq!(&v, &json::parse(&pretty).unwrap());
    }

    /// The stack walk returns the reference walk's changes, in order, on
    /// edited copies (shared subtrees, added/removed keys, type changes)
    /// and on unrelated documents alike.
    #[test]
    fn diff_matches_reference_walk(
        pair in arb_edit_pair(),
        other in arb_value(),
    ) {
        let (old, new) = pair;
        prop_assert_eq!(diff(&old, &new), reference_diff(&old, &new));
        prop_assert_eq!(diff(&new, &old), reference_diff(&new, &old));
        prop_assert_eq!(diff(&old, &other), reference_diff(&old, &other));
        prop_assert_eq!(diff(&other, &new), reference_diff(&other, &new));
    }

    /// diff(a, a) is empty for all documents.
    #[test]
    fn diff_reflexive(v in arb_value()) {
        prop_assert!(diff(&v, &v).is_empty());
    }

    /// Applying the changes from diff(a, b) to a produces a document that
    /// diffs as empty against b (on object-rooted documents).
    #[test]
    fn diff_then_patch_converges(
        a in prop::collection::btree_map("[a-z][a-z0-9]{0,4}", arb_value(), 0..5),
        b in prop::collection::btree_map("[a-z][a-z0-9]{0,4}", arb_value(), 0..5),
    ) {
        let a = Value::Object(a);
        let b = Value::Object(b);
        let mut patched = a.clone();
        for change in diff(&a, &b) {
            match change.op {
                ChangeOp::Removed => {
                    patched.remove(&change.path);
                }
                _ => {
                    patched.set(&change.path, change.new.clone()).unwrap();
                }
            }
        }
        prop_assert!(diff(&patched, &b).is_empty(), "patched={patched} b={b}");
    }

    /// set followed by get returns the stored value.
    #[test]
    fn set_get_roundtrip(p in arb_path(), v in arb_value()) {
        let mut doc = dspace_value::obj();
        doc.set(&p, v.clone()).unwrap();
        prop_assert_eq!(doc.get(&p), Some(&v));
    }

    /// YAML emit/parse roundtrips for object-rooted documents.
    #[test]
    fn yaml_roundtrip(
        doc in prop::collection::btree_map("[a-z][a-z0-9_-]{0,6}", arb_value(), 0..5)
    ) {
        let v = Value::Object(doc);
        let text = yaml::to_string(&v);
        let back = yaml::parse(&text);
        prop_assert!(back.is_ok(), "parse failed: {:?}\n{}", back, text);
        prop_assert_eq!(back.unwrap(), v, "roundtrip mismatch:\n{}", text);
    }

    /// Path display/parse roundtrips.
    #[test]
    fn path_roundtrip(p in arb_path()) {
        let shown = p.to_string();
        let back: Path = shown.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    /// merge(a, b) makes every leaf of b present in the result.
    #[test]
    fn merge_takes_rhs_leaves(
        a in prop::collection::btree_map("[a-z][a-z0-9]{0,4}", arb_value(), 0..4),
        b in prop::collection::btree_map("[a-z][a-z0-9]{0,4}", arb_value(), 0..4),
    ) {
        let a = Value::Object(a);
        let b = Value::Object(b);
        let mut merged = a.clone();
        merged.merge(&b);
        // Every change between merged and b must come from `a`'s extra keys,
        // i.e. diffing b against merged only reports additions.
        for change in diff(&b, &merged) {
            prop_assert_eq!(change.op, ChangeOp::Added);
        }
    }
}
