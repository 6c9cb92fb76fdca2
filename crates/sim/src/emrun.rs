//! Cross-validation of the E-machine code generator.
//!
//! The direct kernel and the generated E-code must agree on *what happens
//! when*: every host updates every communicator at each of its update
//! instants (in declaration order), sensor-fed communicators are refreshed
//! first, and each replication latches inputs and is released exactly at
//! its task's read time. [`validate_ecode`] runs the generated machines for
//! a number of rounds against a recording platform and checks those
//! properties, tying the `emachine` crate to the kernel semantics.

use logrel_core::{HostId, Implementation, Specification, TaskId, Tick};
use logrel_emachine::{generate, DriverOp, EMachine, Platform};
use std::collections::BTreeSet;

/// A platform that records every driver call and release.
#[derive(Debug, Default)]
struct Recorder {
    calls: Vec<(HostId, Tick, DriverOp)>,
    releases: Vec<(HostId, Tick, TaskId)>,
}

impl Platform for Recorder {
    fn call(&mut self, host: HostId, op: DriverOp, now: Tick) {
        self.calls.push((host, now, op));
    }
    fn release(&mut self, host: HostId, task: TaskId, now: Tick) {
        self.releases.push((host, now, task));
    }
}

/// Runs each host's generated E-code for `rounds` rounds and checks it
/// against the specification's event calendar.
///
/// # Errors
///
/// Returns a human-readable description of the first disagreement.
pub fn validate_ecode(
    spec: &Specification,
    imp: &Implementation,
    hosts: impl IntoIterator<Item = HostId>,
    rounds: u64,
) -> Result<(), String> {
    let round = spec.round_period().as_u64();
    let horizon = Tick::new(rounds * round - 1);

    for host in hosts {
        let code = generate(spec, imp, host);
        let mut machine = EMachine::new(code, host);
        let mut rec = Recorder::default();
        machine.run_until(horizon, &mut rec);

        // 1. Every communicator update instant appears exactly once.
        for c in spec.communicator_ids() {
            let period = spec.communicator(c).period().as_u64();
            for r in 0..rounds {
                for k in 0..(round / period) {
                    let at = Tick::new(r * round + k * period);
                    let instance = k;
                    let n = rec
                        .calls
                        .iter()
                        .filter(|(h, t, op)| {
                            *h == host
                                && *t == at
                                && *op == DriverOp::UpdateCommunicator { comm: c, instance }
                        })
                        .count();
                    if n != 1 {
                        return Err(format!(
                            "host {host}: update of {c} instance {instance} at {at} \
                             occurred {n} times"
                        ));
                    }
                }
            }
            // Sensor refreshes precede updates at the same instant.
            if spec.is_sensor_input(c) {
                for (i, (h, t, op)) in rec.calls.iter().enumerate() {
                    if *h == host && *op == (DriverOp::ReadSensors { comm: c }) {
                        let follows = rec.calls[i + 1..].iter().find(|(h2, t2, op2)| {
                            h2 == h
                                && t2 == t
                                && matches!(op2, DriverOp::UpdateCommunicator { comm, .. } if *comm == c)
                        });
                        if follows.is_none() {
                            return Err(format!(
                                "host {host}: sensor read of {c} at {t} without update"
                            ));
                        }
                    }
                }
            }
        }

        // 2. Releases happen exactly at read times, only for local tasks.
        let local: BTreeSet<TaskId> = spec
            .task_ids()
            .filter(|&t| imp.hosts_of(t).contains(&host))
            .collect();
        for (h, at, t) in &rec.releases {
            debug_assert_eq!(*h, host);
            if !local.contains(t) {
                return Err(format!("host {host}: released non-local task {t}"));
            }
            let rel = at.as_u64() % round;
            if rel != spec.read_time(*t).as_u64() {
                return Err(format!(
                    "host {host}: task {t} released at {at} (slot {rel}), read time is {}",
                    spec.read_time(*t)
                ));
            }
        }
        for &t in &local {
            let expected = rounds as usize;
            let got = rec.releases.iter().filter(|(_, _, t2)| *t2 == t).count();
            if got != expected {
                return Err(format!(
                    "host {host}: task {t} released {got} times, expected {expected}"
                ));
            }
            // Every input access latches exactly once per round, at its
            // access instant.
            for (index, &a) in spec.task(t).inputs().iter().enumerate() {
                let latches: Vec<&(HostId, Tick, DriverOp)> = rec
                    .calls
                    .iter()
                    .filter(|(_, _, op)| {
                        *op == (DriverOp::LatchInput {
                            task: t,
                            index: index as u32,
                        })
                    })
                    .collect();
                if latches.len() != expected {
                    return Err(format!(
                        "host {host}: input {index} of {t} latched {} times, \
                         expected {expected}",
                        latches.len()
                    ));
                }
                let want = spec.access_instant(a).as_u64() % round;
                for (_, at, _) in latches {
                    if at.as_u64() % round != want {
                        return Err(format!(
                            "host {host}: input {index} of {t} latched at {at}, \
                             expected slot {want}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{
        Architecture, CommunicatorDecl, HostDecl, Reliability, SensorDecl, SensorId, TaskDecl,
        ValueType,
    };

    fn system() -> (Specification, Implementation, Vec<HostId>) {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let l = sb
            .communicator(CommunicatorDecl::new("l", ValueType::Float, 5).unwrap())
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).unwrap())
            .unwrap();
        let reader = sb
            .task(TaskDecl::new("reader").reads(s, 0).writes(l, 1))
            .unwrap();
        let ctrl = sb
            .task(TaskDecl::new("ctrl").reads(l, 1).writes(u, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let r = Reliability::new(0.99).unwrap();
        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r)).unwrap();
        let h2 = ab.host(HostDecl::new("h2", r)).unwrap();
        ab.sensor(SensorDecl::new("sn", r)).unwrap();
        for t in [reader, ctrl] {
            ab.wcet_all(t, 1).unwrap();
            ab.wctt_all(t, 1).unwrap();
        }
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(reader, [h1, h2])
            .assign(ctrl, [h2])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        (spec, imp, vec![h1, h2])
    }

    #[test]
    fn generated_code_is_consistent_over_multiple_rounds() {
        let (spec, imp, hosts) = system();
        validate_ecode(&spec, &imp, hosts, 3).unwrap();
    }

    #[test]
    fn validation_runs_for_each_host_independently() {
        let (spec, imp, hosts) = system();
        for h in hosts {
            validate_ecode(&spec, &imp, [h], 2).unwrap();
        }
    }
}
