//! Declared refinements in multi-program source files: parse, resolve,
//! check with `logrel-refine`, and inherit validity (Proposition 2) — the
//! incremental design flow driven entirely from source text.

use logrel_lang::{elaborate_file, parse_file};
use logrel_refine::{check_refinement, incremental_validate, validate, Kappa, SystemRef};

const SRC: &str = r#"
// Requirements-level model: generous LET and WCET budget.
program requirements {
    communicator s : float period 10 sensor;
    communicator u : float period 10 lrc 0.999;
    module m {
        start mode main period 50 {
            invoke control reads s[0] writes u[5];
        }
    }
    architecture {
        host h1 reliability 0.999;
        host h2 reliability 0.999;
        sensor sn reliability 0.9999;
        wcet control on h1 30;  wctt control on h1 2;
        wcet control on h2 30;  wctt control on h2 2;
    }
    map { control -> h1, h2;  bind s -> sn; }
}

// Implementation-level model: tighter timing, renamed task.
program implementation {
    communicator s : float period 10 sensor;
    communicator u : float period 10 lrc 0.99;
    module m {
        start mode main period 50 {
            invoke pid_control reads s[1] writes u[4];
        }
    }
    architecture {
        host h1 reliability 0.999;
        host h2 reliability 0.999;
        sensor sn reliability 0.9999;
        wcet pid_control on h1 12;  wctt pid_control on h1 2;
        wcet pid_control on h2 12;  wctt pid_control on h2 2;
    }
    map { pid_control -> h1, h2;  bind s -> sn; }
}

implementation refines requirements {
    pid_control -> control;
}
"#;

#[test]
fn file_parses_and_resolves() {
    let file = parse_file(SRC).unwrap();
    assert_eq!(file.programs.len(), 2);
    assert_eq!(file.refinements.len(), 1);
    assert_eq!(file.refinements[0].refining, "implementation");
    assert_eq!(
        file.refinements[0].map,
        vec![("pid_control".to_owned(), "control".to_owned())]
    );
    let elaborated = elaborate_file(&file).unwrap();
    assert_eq!(elaborated.systems.len(), 2);
    assert_eq!(elaborated.refinements[0].refining, 1);
    assert_eq!(elaborated.refinements[0].refined, 0);
}

#[test]
fn declared_refinement_checks_and_inherits_validity() {
    let elaborated = elaborate_file(&parse_file(SRC).unwrap()).unwrap();
    let req = &elaborated.systems[0];
    let imp = &elaborated.systems[1];
    let r = &elaborated.refinements[0];
    let kappa = Kappa::from_pairs(
        &imp.spec,
        &req.spec,
        r.pairs.iter().map(|(a, b)| (a.as_str(), b.as_str())),
    )
    .unwrap();
    let refined = SystemRef::new(&req.spec, &req.arch, &req.imp);
    let refining = SystemRef::new(&imp.spec, &imp.arch, &imp.imp);
    check_refinement(refining, refined, &kappa).unwrap();
    let cert = validate(refined).unwrap();
    incremental_validate(refining, refined, &kappa, &cert).unwrap();
    // Cross-check against the direct analysis.
    validate(refining).unwrap();
}

#[test]
fn unknown_program_in_declaration_is_reported() {
    let src = SRC.replace("implementation refines requirements", "implementation refines ghost");
    let err = elaborate_file(&parse_file(&src).unwrap()).unwrap_err();
    assert!(err.to_string().contains("ghost"));
}

#[test]
fn unknown_task_in_pair_is_reported() {
    let src = SRC.replace("pid_control -> control;", "pid_control -> phantom;");
    let err = elaborate_file(&parse_file(&src).unwrap()).unwrap_err();
    assert!(err.to_string().contains("phantom"));
}

#[test]
fn duplicate_program_names_are_reported() {
    let src = SRC.replace("program implementation", "program requirements");
    let err = elaborate_file(&parse_file(&src).unwrap()).unwrap_err();
    assert!(err.to_string().contains("duplicate program name"));
}

#[test]
fn empty_pair_block_falls_back_to_name_matching() {
    // Rename the implementation task to match the abstract one and drop
    // the explicit pair: κ by name must kick in.
    let src = SRC
        .replace("pid_control", "control")
        .replace("control -> control;\n", "");
    let elaborated = elaborate_file(&parse_file(&src).unwrap()).unwrap();
    let r = &elaborated.refinements[0];
    assert!(r.pairs.is_empty());
    let req = &elaborated.systems[0];
    let imp = &elaborated.systems[1];
    let kappa = Kappa::from_pairs(&imp.spec, &req.spec, std::iter::empty()).unwrap();
    check_refinement(
        SystemRef::new(&imp.spec, &imp.arch, &imp.imp),
        SystemRef::new(&req.spec, &req.arch, &req.imp),
        &kappa,
    )
    .unwrap();
}

/// A core-model error in one program of a multi-program file gets the
/// spanned diagnosis `htlc check` gives that program alone, pinned:
/// `pid_control` reading `s[4]` reads and writes at instant 40 (`L012`
/// at the invocation, not `L093` at `0:0`).
#[test]
fn check_file_spans_a_failing_program_as_check_does() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/assets/check_file");
    let name = "multi_read_after_write.htl";
    let source = std::fs::read_to_string(dir.join(name)).unwrap();
    assert_eq!(source, SRC.trim_start().replace("reads s[1]", "reads s[4]"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_htlc"))
        .current_dir(&dir)
        .args(["check-file", name])
        .output()
        .expect("htlc runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let expected = std::fs::read_to_string(dir.join("multi_read_after_write.expected")).unwrap();
    assert_eq!(String::from_utf8(out.stderr).unwrap(), expected);
}
