//! Execution tracing: a step-by-step view of a frame for debugging.
//!
//! [`trace`] runs bytecode through the interpreter itself and records one
//! [`TraceStep`] per executed instruction of the root frame — program
//! counter, opcode, gas remaining, and stack depth — plus the run's
//! [`CallOutcome`]. The steps come from a per-instruction hook that every
//! other caller of the interpreter leaves empty, so a traced run is the
//! run [`interpreter::execute`] would make, logs and storage writes
//! included.

use bytes::Bytes;
use sereth_types::u256::U256;

use crate::exec::{CallEnv, CallOutcome, Storage};
use crate::interpreter;
use crate::opcode::Opcode;

/// One executed instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Program counter before execution.
    pub pc: usize,
    /// The decoded opcode (`None` for an invalid byte).
    pub op: Option<Opcode>,
    /// Gas remaining before the instruction.
    pub gas_remaining: u64,
    /// Stack depth before the instruction.
    pub stack_depth: usize,
    /// Top-of-stack before the instruction, if any.
    pub stack_top: Option<U256>,
}

/// A complete trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Every step in execution order.
    pub steps: Vec<TraceStep>,
    /// The frame's outcome.
    pub outcome: CallOutcome,
}

impl Trace {
    /// Renders the trace in a compact, line-per-step format.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for step in &self.steps {
            let name = step.op.map(|op| op.to_string()).unwrap_or_else(|| "INVALID".into());
            let top = step.stack_top.map(|word| format!("0x{word:x}")).unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "{pc:04x}: {name:<14} gas={gas:<8} depth={depth:<3} top={top}",
                pc = step.pc,
                gas = step.gas_remaining,
                depth = step.stack_depth,
            );
        }
        let _ = writeln!(out, "=> {:?}, gas_used={}", self.outcome.status, self.outcome.gas_used);
        out
    }
}

/// Executes `code` exactly like [`interpreter::execute`] while recording a
/// step per instruction of the root frame (sub-calls run but are not
/// recorded).
///
/// The `step_limit` bounds recording on runaway programs (execution still
/// finishes under the gas meter; recording just stops).
pub fn trace(
    code: &[u8],
    env: &CallEnv,
    storage: &mut dyn Storage,
    gas_limit: u64,
    step_limit: usize,
) -> Trace {
    let code = Bytes::copy_from_slice(code);
    let mut recorder = Recorder { steps: Vec::new(), step_limit };
    let outcome = interpreter::execute_owned(code, env.clone(), storage, gas_limit, &mut recorder);
    Trace { steps: recorder.steps, outcome }
}

/// Keeps the first `step_limit` steps of the root frame.
struct Recorder {
    steps: Vec<TraceStep>,
    step_limit: usize,
}

impl interpreter::Observer for Recorder {
    fn step(&mut self, pc: usize, byte: u8, gas_remaining: u64, stack: &[U256]) {
        if self.steps.len() < self.step_limit {
            self.steps.push(TraceStep {
                pc,
                op: Opcode::from_byte(byte),
                gas_remaining,
                stack_depth: stack.len(),
                stack_top: stack.last().copied(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::exec::{ContractCode, MemStorage};
    use sereth_crypto::address::Address;
    use sereth_crypto::hash::H256;
    use sereth_types::receipt::TxStatus;

    fn env() -> CallEnv {
        CallEnv::test_env(Address::from_low_u64(1), Address::from_low_u64(2), Bytes::new())
    }

    /// Runs `code` through [`trace`] and [`interpreter::execute`] on two
    /// copies of `storage`, asserts the whole outcomes agree and so do the
    /// post-states at `slots`; returns the trace and its post-state.
    fn trace_and_execute(
        code: &[u8],
        env: &CallEnv,
        storage: &MemStorage,
        gas_limit: u64,
        slots: &[(Address, H256)],
    ) -> (Trace, MemStorage) {
        let mut traced_state = storage.clone();
        let mut executed_state = storage.clone();
        let traced = trace(code, env, &mut traced_state, gas_limit, usize::MAX);
        let executed = interpreter::execute(code, env, &mut executed_state, gas_limit);
        assert_eq!(traced.outcome, executed, "tracing must not change the run");
        for (address, slot) in slots {
            assert_eq!(traced_state.storage_get(address, slot), executed_state.storage_get(address, slot));
        }
        (traced, traced_state)
    }

    /// A fresh storage with `callee_asm` installed at 0xbb.
    fn with_callee(callee_asm: &str) -> MemStorage {
        let mut storage = MemStorage::new();
        let code = assemble(callee_asm).unwrap();
        storage.set_code(Address::from_low_u64(0xbb), ContractCode::Bytecode(Bytes::from(code)));
        storage
    }

    #[test]
    fn trace_records_every_instruction() {
        let code = assemble("PUSH1 0x02\nPUSH1 0x03\nADD\nSTOP").unwrap();
        let mut storage = MemStorage::new();
        let result = trace(&code, &env(), &mut storage, 100_000, 1_000);
        assert_eq!(result.steps.len(), 4);
        assert_eq!(result.steps[0].op, Some(Opcode::Push(1)));
        assert_eq!(result.steps[2].op, Some(Opcode::Add));
        assert_eq!(result.steps[2].stack_depth, 2);
        assert_eq!(result.steps[2].stack_top, Some(U256::from(3u64)));
        assert_eq!(result.outcome.status, TxStatus::Success);
    }

    #[test]
    fn invalid_byte_is_recorded_as_a_step() {
        let code = [0x60, 0x01, 0x0c]; // PUSH1 0x01, then an unassigned byte
        let mut storage = MemStorage::new();
        let result = trace(&code, &env(), &mut storage, 100_000, 1_000);
        assert_eq!(result.steps.len(), 2);
        assert_eq!((result.steps[1].pc, result.steps[1].op), (2, None));
        assert_eq!(result.outcome.status, TxStatus::Reverted);
        assert!(result.render().contains("INVALID"));
    }

    #[test]
    fn trace_agrees_with_interpreter_on_guarded_store() {
        // The real Sereth bytecode lives in sereth-node (which depends on
        // this crate); exercise an equivalent guard+store+log shape here.
        let source = r#"
            PUSH1 0x00
            CALLDATALOAD
            PUSH1 0x2a
            EQ
            PUSH @do
            JUMPI
            STOP
        do:
            JUMPDEST
            PUSH1 0x07
            PUSH1 0x01
            SSTORE
            PUSH1 0x07     ; topic
            PUSH1 0x00     ; len
            PUSH1 0x00     ; offset
            LOG1
            STOP
        "#;
        let code = assemble(source).unwrap();
        let mut calldata = [0u8; 32];
        calldata[31] = 0x2a;
        let mut env = env();
        env.calldata = Bytes::copy_from_slice(&calldata);
        let slot = H256::from_low_u64(1);
        let (traced, state) =
            trace_and_execute(&code, &env, &MemStorage::new(), 100_000, &[(env.callee, slot)]);
        assert_eq!(traced.outcome.logs.len(), 1, "the trace carries the run's log");
        assert!(traced.steps.iter().any(|s| s.op == Some(Opcode::SStore)));
        assert_eq!(state.storage_get(&env.callee, &slot), H256::from_low_u64(7));
    }

    #[test]
    fn trace_agrees_with_interpreter_across_sub_calls() {
        // Callee stores 9, logs, and returns 0x2a; caller calls it, stores
        // the flag, returns the callee's word. Only the caller's frame is
        // traced.
        let storage = with_callee(
            "PUSH1 0x09\nPUSH1 0x00\nSSTORE\nPUSH1 0x07\nPUSH1 0x00\nPUSH1 0x00\nLOG1\nPUSH1 0x2a\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN",
        );
        let caller = assemble(
            r#"
            PUSH1 0x20
            PUSH1 0x00
            PUSH1 0x00
            PUSH1 0x00
            PUSH1 0x00
            PUSH1 0xbb
            PUSH3 0xc350
            CALL
            PUSH1 0x01
            SSTORE
            PUSH1 0x20
            PUSH1 0x00
            RETURN
            "#,
        )
        .unwrap();
        let (callee, me, flag) = (Address::from_low_u64(0xbb), env().callee, H256::from_low_u64(1));
        let (traced, state) =
            trace_and_execute(&caller, &env(), &storage, 1_000_000, &[(callee, H256::ZERO), (me, flag)]);
        assert_eq!(traced.outcome.status, TxStatus::Success);
        assert_eq!(traced.outcome.return_data[31], 0x2a, "child output propagated");
        assert_eq!(traced.outcome.logs.len(), 1, "the child's log bubbles up");
        assert_eq!(traced.steps.len(), 13, "child steps are not recorded");
        assert!(traced.steps.iter().all(|s| s.pc < caller.len()));
        assert_eq!(state.storage_get(&callee, &H256::ZERO), H256::from_low_u64(9));
        assert_eq!(state.storage_get(&me, &flag), H256::from_low_u64(1));
    }

    #[test]
    fn trace_agrees_with_interpreter_on_reverting_sub_call() {
        let storage = with_callee("PUSH1 0x09\nPUSH1 0x00\nSSTORE\nPUSH1 0x00\nPUSH1 0x00\nREVERT");
        // Caller returns the call's success flag (must be 0).
        let caller = assemble(
            "PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0xbb\nPUSH3 0xc350\nCALL\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN",
        )
        .unwrap();
        let callee = Address::from_low_u64(0xbb);
        let (traced, state) =
            trace_and_execute(&caller, &env(), &storage, 1_000_000, &[(callee, H256::ZERO)]);
        assert_eq!(traced.outcome.status, TxStatus::Success, "parent survives child revert");
        assert_eq!(traced.outcome.return_data[31], 0, "flag 0");
        assert!(state.storage_get(&callee, &H256::ZERO).is_zero(), "the child's write rolled back");
    }

    #[test]
    fn trace_reports_reverts() {
        let code = assemble("PUSH1 0x00\nPUSH1 0x00\nREVERT").unwrap();
        let mut storage = MemStorage::new();
        let result = trace(&code, &env(), &mut storage, 100_000, 1_000);
        assert_eq!(result.outcome.status, TxStatus::Reverted);
        assert_eq!(result.steps.len(), 3);
    }

    #[test]
    fn step_limit_bounds_recording() {
        let code = assemble("begin:\nJUMPDEST\nPUSH @begin\nJUMP").unwrap();
        let mut storage = MemStorage::new();
        let result = trace(&code, &env(), &mut storage, 1_000_000, 50);
        assert_eq!(result.steps.len(), 50);
        // Recording stopped; execution ran on until the gas ran out.
        assert_eq!(result.outcome.status, TxStatus::OutOfGas);
        assert_eq!(result.outcome.gas_used, 1_000_000);
    }

    #[test]
    fn render_is_readable() {
        let code = assemble("PUSH1 0x01\nPUSH1 0x02\nADD\nSTOP").unwrap();
        let mut storage = MemStorage::new();
        let rendered = trace(&code, &env(), &mut storage, 100_000, 100).render();
        assert!(rendered.contains("PUSH1"));
        assert!(rendered.contains("ADD"));
        assert!(rendered.contains("gas_used"));
    }
}
