//! The task mapping κ between a refining and a refined specification.

use crate::error::{RefineError, Violation};
use logrel_core::{Specification, TaskId};
use std::collections::BTreeMap;

/// A total, one-to-one mapping from refining tasks to refined tasks.
///
/// # Example
///
/// ```
/// use logrel_core::prelude::*;
/// use logrel_refine::Kappa;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut b = Specification::builder();
/// # let c = b.communicator(CommunicatorDecl::new("c", ValueType::Float, 2)?.from_sensor())?;
/// # let d = b.communicator(CommunicatorDecl::new("d", ValueType::Float, 2)?)?;
/// # b.task(TaskDecl::new("t").reads(c, 0).writes(d, 1))?;
/// # let spec = b.build()?;
/// // Identity mapping of a spec onto itself:
/// let kappa = Kappa::identity(&spec);
/// let t = spec.find_task("t").unwrap();
/// assert_eq!(kappa.image(t), Some(t));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Kappa {
    map: BTreeMap<TaskId, TaskId>,
}

impl Kappa {
    /// The identity mapping on `spec`'s tasks.
    pub fn identity(spec: &Specification) -> Self {
        Kappa {
            map: spec.task_ids().map(|t| (t, t)).collect(),
        }
    }

    /// Maps tasks of `refining` to the same-named tasks of `refined`;
    /// tasks without a same-named image are left unmapped (and will be
    /// reported as [`Violation::KappaNotTotal`] by the checker).
    pub fn by_name(refining: &Specification, refined: &Specification) -> Self {
        let mut map = BTreeMap::new();
        for t in refining.task_ids() {
            if let Some(img) = refined.find_task(refining.task(t).name()) {
                map.insert(t, img);
            }
        }
        Kappa { map }
    }

    /// Builds κ from explicit name pairs `(refining task, refined task)`;
    /// tasks not mentioned fall back to same-name matching (so a partial
    /// explicit map only has to cover the renamed tasks).
    ///
    /// # Errors
    ///
    /// Returns [`RefineError::UnknownTask`] for a pair naming a
    /// nonexistent task on either side.
    pub fn from_pairs<'p>(
        refining: &Specification,
        refined: &Specification,
        pairs: impl IntoIterator<Item = (&'p str, &'p str)>,
    ) -> Result<Self, RefineError> {
        let mut kappa = Kappa::by_name(refining, refined);
        for (from, to) in pairs {
            let f = refining
                .find_task(from)
                .ok_or_else(|| RefineError::UnknownTask { id: from.into() })?;
            let t = refined
                .find_task(to)
                .ok_or_else(|| RefineError::UnknownTask { id: to.into() })?;
            kappa.map.insert(f, t);
        }
        Ok(kappa)
    }

    /// The image of a refining task.
    pub fn image(&self, task: TaskId) -> Option<TaskId> {
        self.map.get(&task).copied()
    }

    /// Checks totality (every refining task mapped) and injectivity.
    ///
    /// # Errors
    ///
    /// Returns [`RefineError::NotARefinement`] listing every unmapped task
    /// and every injectivity collision; [`RefineError::UnknownTask`] if an
    /// image id lies outside `refined`.
    pub fn validate(
        &self,
        refining: &Specification,
        refined: &Specification,
    ) -> Result<(), RefineError> {
        let mut violations = Vec::new();
        let mut used: BTreeMap<TaskId, TaskId> = BTreeMap::new();
        for t in refining.task_ids() {
            match self.image(t) {
                None => violations.push(Violation::KappaNotTotal {
                    task: refining.task(t).name().to_owned(),
                }),
                Some(img) => {
                    if img.index() >= refined.task_count() {
                        return Err(RefineError::UnknownTask {
                            id: img.to_string(),
                        });
                    }
                    if let Some(&prev) = used.get(&img) {
                        violations.push(Violation::KappaNotInjective {
                            refined: refined.task(img).name().to_owned(),
                            first: refining.task(prev).name().to_owned(),
                            second: refining.task(t).name().to_owned(),
                        });
                    } else {
                        used.insert(img, t);
                    }
                }
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(RefineError::NotARefinement { violations })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{CommunicatorDecl, TaskDecl, ValueType};

    fn two_task_spec(names: [&str; 2]) -> Specification {
        let mut b = Specification::builder();
        let c = b
            .communicator(
                CommunicatorDecl::new("c", ValueType::Float, 2)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let d = b
            .communicator(CommunicatorDecl::new("d", ValueType::Float, 2).unwrap())
            .unwrap();
        let e = b
            .communicator(CommunicatorDecl::new("e", ValueType::Float, 2).unwrap())
            .unwrap();
        b.task(TaskDecl::new(names[0]).reads(c, 0).writes(d, 1))
            .unwrap();
        b.task(TaskDecl::new(names[1]).reads(c, 0).writes(e, 1))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn identity_is_valid() {
        let spec = two_task_spec(["a", "b"]);
        let k = Kappa::identity(&spec);
        assert!(k.validate(&spec, &spec).is_ok());
    }

    #[test]
    fn by_name_matches() {
        let s1 = two_task_spec(["a", "b"]);
        let s2 = two_task_spec(["b", "a"]); // same names, swapped order
        let k = Kappa::by_name(&s1, &s2);
        assert!(k.validate(&s1, &s2).is_ok());
        let a1 = s1.find_task("a").unwrap();
        let a2 = s2.find_task("a").unwrap();
        assert_eq!(k.image(a1), Some(a2));
    }

    #[test]
    fn missing_mapping_is_not_total() {
        let s1 = two_task_spec(["a", "b"]);
        let s2 = two_task_spec(["a", "x"]);
        let k = Kappa::by_name(&s1, &s2);
        let err = k.validate(&s1, &s2).unwrap_err();
        let RefineError::NotARefinement { violations } = err else {
            panic!()
        };
        assert!(matches!(&violations[0], Violation::KappaNotTotal { task } if task == "b"));
    }

    #[test]
    fn non_injective_rejected() {
        let s1 = two_task_spec(["a", "b"]);
        let s2 = two_task_spec(["a", "b"]);
        let a1 = s1.find_task("a").unwrap();
        let b1 = s1.find_task("b").unwrap();
        let a2 = s2.find_task("a").unwrap();
        let k = Kappa {
            map: BTreeMap::from([(a1, a2), (b1, a2)]),
        };
        let err = k.validate(&s1, &s2).unwrap_err();
        let RefineError::NotARefinement { violations } = err else {
            panic!()
        };
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::KappaNotInjective { .. })));
    }

    #[test]
    fn unknown_image_rejected() {
        let s1 = two_task_spec(["a", "b"]);
        let s2 = two_task_spec(["a", "b"]);
        let a1 = s1.find_task("a").unwrap();
        let b1 = s1.find_task("b").unwrap();
        let k = Kappa {
            map: BTreeMap::from([(a1, TaskId::new(9)), (b1, TaskId::new(1))]),
        };
        assert!(matches!(
            k.validate(&s1, &s2).unwrap_err(),
            RefineError::UnknownTask { .. }
        ));
    }

    #[test]
    fn default_is_empty() {
        let k = Kappa::default();
        assert_eq!(k.image(TaskId::new(0)), None);
    }
}
