//! The bytecode interpreter: a 256-bit stack machine over the opcode subset
//! in [`crate::opcode`].
//!
//! One call to [`execute`] runs a frame — and every frame it spawns through
//! `CALL`/`STATICCALL` — to completion. Sub-calls do **not** recurse on the
//! host stack: the internal driver loop keeps suspended parent frames in
//! an explicit `Vec`, so adversarial bytecode can nest calls to the EVM's
//! full depth limit without exhausting the thread stack. A child's failure
//! rolls back only its own writes (via the storage checkpoint taken when
//! the call began).

use bytes::Bytes;
use sereth_crypto::keccak::keccak256;
use sereth_types::receipt::{Log, TxStatus};
use sereth_types::u256::U256;

use crate::error::VmError;
use crate::exec::{CallEnv, CallOutcome, ContractCode, Storage};
use crate::gas::{self, GasMeter};
use crate::opcode::{valid_jump_destinations, Opcode};
use crate::subcall::{self, word_address, SubCallRequest};

/// Hard stack depth limit, as in the EVM.
const STACK_LIMIT: usize = 1024;

/// Executes `code` in `env` against `storage`, metering against
/// `gas_limit`.
///
/// Returns a [`CallOutcome`]; errors are folded into the outcome's status
/// (the caller decides whether to roll back state). Storage writes are
/// applied eagerly — run under a journaled storage if rollback is needed.
pub fn execute(code: &[u8], env: &CallEnv, storage: &mut dyn Storage, gas_limit: u64) -> CallOutcome {
    execute_owned(Bytes::copy_from_slice(code), env.clone(), storage, gas_limit)
}

/// What a frame's inner loop produced when it yielded.
enum RunOutcome {
    /// The frame halted (`STOP`, `RETURN`, or running off the code end).
    Done(Bytes),
    /// The frame executed `CALL`/`STATICCALL` and is suspended awaiting
    /// the child's outcome.
    SubCall { request: SubCallRequest, out_offset: usize, out_len: usize },
}

/// Bookkeeping for a suspended parent: where the child's output goes and
/// how to undo the child on failure.
struct PendingCall {
    out_offset: usize,
    out_len: usize,
    checkpoint: usize,
    stipend: u64,
}

/// What [`begin_subcall`] decided.
enum BeginCall {
    /// The child completed synchronously (no code, native code, flat
    /// failure) and its result is already absorbed into the parent.
    Immediate,
    /// A bytecode child: the driver must descend into this frame (boxed —
    /// frames are heap-bound anyway once suspended).
    Descend(Box<Frame>, PendingCall),
}

/// [`execute`] without the defensive copy (`Bytes` is reference-counted).
pub(crate) fn execute_owned(
    code: Bytes,
    env: CallEnv,
    storage: &mut dyn Storage,
    gas_limit: u64,
) -> CallOutcome {
    let mut suspended: Vec<(Frame, PendingCall)> = Vec::new();
    let mut current = Frame::new(code, env, gas_limit);
    loop {
        let mut finished = match current.run(storage) {
            Ok(RunOutcome::SubCall { request, out_offset, out_len }) => {
                match begin_subcall(&mut current, request, out_offset, out_len, storage) {
                    Ok(BeginCall::Immediate) => continue,
                    Ok(BeginCall::Descend(child, pending)) => {
                        suspended.push((std::mem::replace(&mut current, *child), pending));
                        continue;
                    }
                    Err(error) => current.take_outcome(Err(error)),
                }
            }
            Ok(RunOutcome::Done(data)) => current.take_outcome(Ok(data)),
            Err(error) => current.take_outcome(Err(error)),
        };
        // Unwind: hand the finished child's outcome to its parent; a parent
        // that fails while absorbing (e.g. out of gas on the charge)
        // finishes too and keeps unwinding.
        loop {
            let Some((parent, pending)) = suspended.pop() else {
                return finished;
            };
            current = parent;
            match current.absorb_child(finished, &pending, storage) {
                Ok(()) => break,
                Err(error) => finished = current.take_outcome(Err(error)),
            }
        }
    }
}

/// Starts the sub-call `request` issued by `parent`: depth and balance
/// checks, value transfer, and dispatch on the callee's code kind.
///
/// # Errors
///
/// Only errors that fail the *parent* frame (out of gas while absorbing an
/// immediate child). Failures of the call itself push 0 and succeed.
fn begin_subcall(
    parent: &mut Frame,
    request: SubCallRequest,
    out_offset: usize,
    out_len: usize,
    storage: &mut dyn Storage,
) -> Result<BeginCall, VmError> {
    if parent.env.depth >= gas::CALL_DEPTH_LIMIT {
        parent.apply_flat_call_failure()?;
        return Ok(BeginCall::Immediate);
    }
    let stipend = subcall::stipend_for(request.value);
    let forwarded = gas::forwarded_call_gas(parent.gas.remaining(), request.gas_requested) + stipend;
    let pending = PendingCall { out_offset, out_len, checkpoint: storage.checkpoint(), stipend };
    if !storage.transfer(&parent.env.callee, &request.target, request.value) {
        parent.apply_flat_call_failure()?;
        return Ok(BeginCall::Immediate);
    }
    let child_env = subcall::child_env(parent.env(), &request);
    match storage.code_get(&request.target) {
        ContractCode::None => {
            // A plain transfer to an account with no code.
            let outcome = CallOutcome {
                status: TxStatus::Success,
                return_data: Bytes::new(),
                gas_used: 0,
                logs: Vec::new(),
            };
            parent.absorb_child(outcome, &pending, storage)?;
            Ok(BeginCall::Immediate)
        }
        ContractCode::Native(native) => {
            let outcome = subcall::run_native(native.as_ref(), &child_env, storage, forwarded);
            parent.absorb_child(outcome, &pending, storage)?;
            Ok(BeginCall::Immediate)
        }
        ContractCode::Bytecode(child_code) => {
            Ok(BeginCall::Descend(Box::new(Frame::new(child_code, child_env, forwarded)), pending))
        }
    }
}

struct Frame {
    code: Bytes,
    env: CallEnv,
    pc: usize,
    stack: Vec<U256>,
    memory: Vec<u8>,
    gas: GasMeter,
    logs: Vec<Log>,
    jumpdests: Vec<bool>,
    /// Output of the most recent completed sub-call (`RETURNDATASIZE` /
    /// `RETURNDATACOPY`).
    return_data: Bytes,
    /// Payload captured by `REVERT`, surfaced in the frame's outcome.
    revert_data: Bytes,
}

impl Frame {
    fn new(code: Bytes, env: CallEnv, gas_limit: u64) -> Self {
        let jumpdests = valid_jump_destinations(&code);
        Self {
            code,
            env,
            pc: 0,
            stack: Vec::with_capacity(64),
            memory: Vec::new(),
            gas: GasMeter::new(gas_limit),
            logs: Vec::new(),
            jumpdests,
            return_data: Bytes::new(),
            revert_data: Bytes::new(),
        }
    }

    fn env(&self) -> &CallEnv {
        &self.env
    }

    /// Folds the frame's halt condition into its [`CallOutcome`], emptying
    /// the frame (the driver discards it afterwards).
    fn take_outcome(&mut self, result: Result<Bytes, VmError>) -> CallOutcome {
        match result {
            Ok(return_data) => CallOutcome {
                status: TxStatus::Success,
                return_data,
                gas_used: self.gas.used(),
                logs: std::mem::take(&mut self.logs),
            },
            Err(error) => {
                let mut outcome = CallOutcome::from_error(&error, self.gas.used());
                if error == VmError::Reverted {
                    // REVERT's payload travels to the caller as return data.
                    outcome.return_data = std::mem::take(&mut self.revert_data);
                }
                outcome
            }
        }
    }

    /// Records a completed child into this (suspended) frame: rollback on
    /// failure, gas accounting, output copy, log merge, success flag.
    ///
    /// # Errors
    ///
    /// Fails the *parent* if charging the child's gas exhausts its meter.
    fn absorb_child(
        &mut self,
        child: CallOutcome,
        pending: &PendingCall,
        storage: &mut dyn Storage,
    ) -> Result<(), VmError> {
        let success = child.status.is_success();
        if !success {
            storage.revert_checkpoint(pending.checkpoint);
        }
        self.gas.charge(child.gas_used.saturating_sub(pending.stipend))?;
        // The caller sees up to `out_len` bytes of the child's output; the
        // full buffer stays readable through RETURNDATACOPY — including a
        // reverting child's revert payload.
        let copied = pending.out_len.min(child.return_data.len());
        self.memory[pending.out_offset..pending.out_offset + copied]
            .copy_from_slice(&child.return_data[..copied]);
        if success {
            self.logs.extend(child.logs);
        }
        self.return_data = child.return_data;
        self.push(U256::from(success as u64))
    }

    /// A call that failed before executing anything (depth limit,
    /// insufficient balance): clears the return buffer and pushes 0.
    fn apply_flat_call_failure(&mut self) -> Result<(), VmError> {
        self.return_data = Bytes::new();
        self.push(U256::ZERO)
    }

    fn push(&mut self, value: U256) -> Result<(), VmError> {
        if self.stack.len() >= STACK_LIMIT {
            return Err(VmError::StackOverflow);
        }
        self.stack.push(value);
        Ok(())
    }

    fn pop(&mut self) -> Result<U256, VmError> {
        self.stack.pop().ok_or(VmError::StackUnderflow)
    }

    fn pop_usize(&mut self) -> Result<usize, VmError> {
        // Offsets beyond u64 would out-of-gas anyway; saturate.
        Ok(self.pop()?.saturating_to_u64() as usize)
    }

    /// Ensures memory covers `[offset, offset + len)`, charging expansion.
    fn touch_memory(&mut self, offset: usize, len: usize) -> Result<(), VmError> {
        if len == 0 {
            return Ok(());
        }
        let end = offset.checked_add(len).ok_or(VmError::OutOfGas)?;
        self.gas.charge_memory(end as u64)?;
        if self.memory.len() < end {
            self.memory.resize(end, 0);
        }
        Ok(())
    }

    /// Runs instructions until the frame halts or suspends on a sub-call.
    /// Resumable: the driver calls it again after absorbing the child.
    fn run(&mut self, storage: &mut dyn Storage) -> Result<RunOutcome, VmError> {
        loop {
            let Some(&byte) = self.code.get(self.pc) else {
                // Running off the end of code is an implicit STOP.
                return Ok(RunOutcome::Done(Bytes::new()));
            };
            let op = Opcode::from_byte(byte).ok_or(VmError::InvalidOpcode { byte })?;
            self.gas.charge(gas::static_cost(op))?;
            self.pc += 1;

            match op {
                Opcode::Stop => return Ok(RunOutcome::Done(Bytes::new())),
                Opcode::Add => self.binary(|a, b| a + b)?,
                Opcode::Mul => self.binary(|a, b| a * b)?,
                Opcode::Sub => self.binary(|a, b| a - b)?,
                Opcode::Div => self.binary(|a, b| a.div_rem(b).map(|(q, _)| q).unwrap_or(U256::ZERO))?,
                Opcode::SDiv => self.binary(|a, b| a.signed_div(b))?,
                Opcode::Mod => self.binary(|a, b| a.div_rem(b).map(|(_, r)| r).unwrap_or(U256::ZERO))?,
                Opcode::SMod => self.binary(|a, b| a.signed_rem(b))?,
                Opcode::AddMod => {
                    let a = self.pop()?;
                    let b = self.pop()?;
                    let n = self.pop()?;
                    self.push(a.add_mod(b, n))?;
                }
                Opcode::MulMod => {
                    let a = self.pop()?;
                    let b = self.pop()?;
                    let n = self.pop()?;
                    self.push(a.mul_mod(b, n))?;
                }
                Opcode::Exp => {
                    let base = self.pop()?;
                    let exponent = self.pop()?;
                    self.gas.charge(gas::exp_byte_cost(exponent.bits()))?;
                    self.push(base.wrapping_pow(exponent))?;
                }
                Opcode::SignExtend => {
                    let index = self.pop()?;
                    let value = self.pop()?;
                    self.push(value.sign_extend(index.saturating_to_u64().min(32) as usize))?;
                }
                Opcode::Lt => self.binary(|a, b| U256::from((a < b) as u64))?,
                Opcode::Gt => self.binary(|a, b| U256::from((a > b) as u64))?,
                Opcode::Slt => self.binary(|a, b| U256::from(a.signed_lt(&b) as u64))?,
                Opcode::Sgt => self.binary(|a, b| U256::from(b.signed_lt(&a) as u64))?,
                Opcode::Eq => self.binary(|a, b| U256::from((a == b) as u64))?,
                Opcode::IsZero => {
                    let a = self.pop()?;
                    self.push(U256::from(a.is_zero() as u64))?;
                }
                Opcode::And => self.binary(|a, b| a & b)?,
                Opcode::Or => self.binary(|a, b| a | b)?,
                Opcode::Xor => self.binary(|a, b| a ^ b)?,
                Opcode::Not => {
                    let a = self.pop()?;
                    self.push(!a)?;
                }
                Opcode::Byte => {
                    let index = self.pop()?;
                    let value = self.pop()?;
                    let byte = value.byte_msb(index.saturating_to_u64() as usize);
                    self.push(U256::from(byte as u64))?;
                }
                Opcode::Shl => {
                    let shift = self.pop()?;
                    let value = self.pop()?;
                    self.push(value << shift.saturating_to_u64().min(256) as u32)?;
                }
                Opcode::Shr => {
                    let shift = self.pop()?;
                    let value = self.pop()?;
                    self.push(value >> shift.saturating_to_u64().min(256) as u32)?;
                }
                Opcode::Sar => {
                    let shift = self.pop()?;
                    let value = self.pop()?;
                    self.push(value.sar(shift.saturating_to_u64().min(256) as u32))?;
                }
                Opcode::Sha3 => {
                    let offset = self.pop_usize()?;
                    let len = self.pop_usize()?;
                    self.gas.charge(gas::sha3_word_cost(len as u64))?;
                    self.touch_memory(offset, len)?;
                    let digest = keccak256(&self.memory[offset..offset + len]);
                    self.push(U256::from_be_bytes(digest))?;
                }
                Opcode::Address => {
                    self.push(address_word(self.env.callee.as_bytes()))?;
                }
                Opcode::Balance => {
                    let address = word_address(self.pop()?);
                    self.push(storage.balance_get(&address))?;
                }
                Opcode::SelfBalance => {
                    self.push(storage.balance_get(&self.env.callee))?;
                }
                Opcode::Caller => {
                    self.push(address_word(self.env.caller.as_bytes()))?;
                }
                Opcode::CallValue => self.push(self.env.call_value)?,
                Opcode::CallDataLoad => {
                    let offset = self.pop_usize()?;
                    let mut word = [0u8; 32];
                    for (i, slot) in word.iter_mut().enumerate() {
                        // Out-of-range (including offsets near usize::MAX)
                        // reads as zero padding.
                        *slot = offset
                            .checked_add(i)
                            .and_then(|index| self.env.calldata.get(index))
                            .copied()
                            .unwrap_or(0);
                    }
                    self.push(U256::from_be_bytes(word))?;
                }
                Opcode::CallDataSize => self.push(U256::from(self.env.calldata.len() as u64))?,
                Opcode::CallDataCopy => {
                    let mem_offset = self.pop_usize()?;
                    let data_offset = self.pop_usize()?;
                    let len = self.pop_usize()?;
                    self.touch_memory(mem_offset, len)?;
                    for i in 0..len {
                        self.memory[mem_offset + i] = data_offset
                            .checked_add(i)
                            .and_then(|index| self.env.calldata.get(index))
                            .copied()
                            .unwrap_or(0);
                    }
                }
                Opcode::ReturnDataSize => self.push(U256::from(self.return_data.len() as u64))?,
                Opcode::ReturnDataCopy => {
                    let mem_offset = self.pop_usize()?;
                    let data_offset = self.pop_usize()?;
                    let len = self.pop_usize()?;
                    // Unlike CALLDATACOPY, out-of-range reads are a hard
                    // error in the EVM.
                    let end = data_offset.checked_add(len).ok_or(VmError::ReturnDataOutOfBounds)?;
                    if end > self.return_data.len() {
                        return Err(VmError::ReturnDataOutOfBounds);
                    }
                    self.gas.charge(gas::copy_word_cost(len as u64))?;
                    self.touch_memory(mem_offset, len)?;
                    self.memory[mem_offset..mem_offset + len]
                        .copy_from_slice(&self.return_data[data_offset..end]);
                }
                Opcode::Timestamp => self.push(U256::from(self.env.timestamp_ms))?,
                Opcode::Number => self.push(U256::from(self.env.block_number))?,
                Opcode::Pop => {
                    self.pop()?;
                }
                Opcode::MLoad => {
                    let offset = self.pop_usize()?;
                    self.touch_memory(offset, 32)?;
                    let mut word = [0u8; 32];
                    word.copy_from_slice(&self.memory[offset..offset + 32]);
                    self.push(U256::from_be_bytes(word))?;
                }
                Opcode::MStore => {
                    let offset = self.pop_usize()?;
                    let value = self.pop()?;
                    self.touch_memory(offset, 32)?;
                    self.memory[offset..offset + 32].copy_from_slice(&value.to_be_bytes());
                }
                Opcode::MStore8 => {
                    let offset = self.pop_usize()?;
                    let value = self.pop()?;
                    self.touch_memory(offset, 1)?;
                    self.memory[offset] = value.byte_msb(31);
                }
                Opcode::SLoad => {
                    let key = self.pop()?.to_h256();
                    let value = storage.storage_get(&self.env.callee, &key);
                    self.push(U256::from_h256(value))?;
                }
                Opcode::SStore => {
                    if self.env.is_static {
                        return Err(VmError::StaticViolation);
                    }
                    let key = self.pop()?.to_h256();
                    let value = self.pop()?.to_h256();
                    let old = storage.storage_get(&self.env.callee, &key);
                    self.gas.charge(gas::sstore_cost(old.is_zero(), value.is_zero()))?;
                    storage.storage_set(&self.env.callee, key, value);
                }
                Opcode::Jump => {
                    let target = self.pop_usize()?;
                    self.jump_to(target)?;
                }
                Opcode::JumpI => {
                    let target = self.pop_usize()?;
                    let condition = self.pop()?;
                    if !condition.is_zero() {
                        self.jump_to(target)?;
                    }
                }
                Opcode::Pc => self.push(U256::from((self.pc - 1) as u64))?,
                Opcode::MSize => self.push(U256::from(self.memory.len() as u64))?,
                Opcode::Gas => self.push(U256::from(self.gas.remaining()))?,
                Opcode::JumpDest => {}
                Opcode::Push(n) => {
                    let end = (self.pc + n as usize).min(self.code.len());
                    let mut word = [0u8; 32];
                    let bytes = &self.code[self.pc..end];
                    word[32 - n as usize..32 - n as usize + bytes.len()].copy_from_slice(bytes);
                    self.push(U256::from_be_bytes(word))?;
                    self.pc += n as usize;
                }
                Opcode::Dup(n) => {
                    let depth = n as usize;
                    if self.stack.len() < depth {
                        return Err(VmError::StackUnderflow);
                    }
                    let value = self.stack[self.stack.len() - depth];
                    self.push(value)?;
                }
                Opcode::Swap(n) => {
                    let depth = n as usize;
                    if self.stack.len() < depth + 1 {
                        return Err(VmError::StackUnderflow);
                    }
                    let top = self.stack.len() - 1;
                    self.stack.swap(top, top - depth);
                }
                Opcode::Log(topic_count) => {
                    if self.env.is_static {
                        return Err(VmError::StaticViolation);
                    }
                    let offset = self.pop_usize()?;
                    let len = self.pop_usize()?;
                    let mut topics = Vec::with_capacity(topic_count as usize);
                    for _ in 0..topic_count {
                        topics.push(self.pop()?.to_h256());
                    }
                    self.gas.charge(gas::log_data_cost(len as u64))?;
                    self.touch_memory(offset, len)?;
                    let data = Bytes::copy_from_slice(&self.memory[offset..offset + len]);
                    self.logs.push(Log { address: self.env.callee, topics, data });
                }
                Opcode::Call => return self.prepare_call(false),
                Opcode::StaticCall => return self.prepare_call(true),
                Opcode::Return => {
                    let offset = self.pop_usize()?;
                    let len = self.pop_usize()?;
                    self.touch_memory(offset, len)?;
                    return Ok(RunOutcome::Done(Bytes::copy_from_slice(&self.memory[offset..offset + len])));
                }
                Opcode::Revert => {
                    let offset = self.pop_usize()?;
                    let len = self.pop_usize()?;
                    self.touch_memory(offset, len)?;
                    self.revert_data = Bytes::copy_from_slice(&self.memory[offset..offset + len]);
                    return Err(VmError::Reverted);
                }
            }
        }
    }

    /// `CALL` / `STATICCALL`: decodes the operands and suspends the frame;
    /// the driver runs the child and pushes the success flag on resume.
    fn prepare_call(&mut self, is_static_call: bool) -> Result<RunOutcome, VmError> {
        let gas_requested = self.pop()?.saturating_to_u64();
        let target = word_address(self.pop()?);
        let value = if is_static_call { U256::ZERO } else { self.pop()? };
        let in_offset = self.pop_usize()?;
        let in_len = self.pop_usize()?;
        let out_offset = self.pop_usize()?;
        let out_len = self.pop_usize()?;

        if self.env.is_static && !value.is_zero() {
            return Err(VmError::StaticViolation);
        }
        if !value.is_zero() {
            self.gas.charge(gas::CALL_VALUE_GAS)?;
        }
        self.touch_memory(in_offset, in_len)?;
        self.touch_memory(out_offset, out_len)?;

        let request = SubCallRequest {
            gas_requested,
            target,
            value,
            calldata: Bytes::copy_from_slice(&self.memory[in_offset..in_offset + in_len]),
            is_static_call,
        };
        Ok(RunOutcome::SubCall { request, out_offset, out_len })
    }

    fn jump_to(&mut self, target: usize) -> Result<(), VmError> {
        if target < self.jumpdests.len() && self.jumpdests[target] {
            self.pc = target;
            Ok(())
        } else {
            Err(VmError::InvalidJump { target })
        }
    }

    fn binary(&mut self, f: impl FnOnce(U256, U256) -> U256) -> Result<(), VmError> {
        let a = self.pop()?;
        let b = self.pop()?;
        self.push(f(a, b))
    }
}

/// Left-pads a 20-byte address into a 256-bit word.
fn address_word(address: &[u8; 20]) -> U256 {
    let mut word = [0u8; 32];
    word[12..].copy_from_slice(address);
    U256::from_be_bytes(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::exec::MemStorage;
    use sereth_crypto::address::Address;
    use sereth_crypto::hash::H256;

    const GAS: u64 = 10_000_000;

    fn run(source: &str, calldata: &[u8]) -> CallOutcome {
        let code = assemble(source).expect("assembly must be valid");
        let env = CallEnv::test_env(
            Address::from_low_u64(0xca11e4),
            Address::from_low_u64(0xc0de),
            Bytes::copy_from_slice(calldata),
        );
        let mut storage = MemStorage::new();
        execute(&code, &env, &mut storage, GAS)
    }

    fn returned_u64(outcome: &CallOutcome) -> u64 {
        assert_eq!(outcome.status, TxStatus::Success, "outcome: {outcome:?}");
        let mut word = [0u8; 32];
        word.copy_from_slice(&outcome.return_data);
        U256::from_be_bytes(word).try_to_u64().unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        // 3 + 4 = 7, returned as a word.
        let outcome =
            run("PUSH1 0x04\nPUSH1 0x03\nADD\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN", &[]);
        assert_eq!(returned_u64(&outcome), 7);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let outcome =
            run("PUSH1 0x00\nPUSH1 0x09\nDIV\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN", &[]);
        assert_eq!(returned_u64(&outcome), 0);
    }

    #[test]
    fn conditional_jump_takes_branch() {
        // if 1 { return 42 } else { return 13 }
        let source = r#"
            PUSH1 0x01
            PUSH @then
            JUMPI
            PUSH1 0x0d
            PUSH1 0x00
            MSTORE
            PUSH1 0x20
            PUSH1 0x00
            RETURN
        then:
            JUMPDEST
            PUSH1 0x2a
            PUSH1 0x00
            MSTORE
            PUSH1 0x20
            PUSH1 0x00
            RETURN
        "#;
        assert_eq!(returned_u64(&run(source, &[])), 42);
    }

    #[test]
    fn jump_to_non_jumpdest_fails() {
        let outcome = run("PUSH1 0x01\nJUMP", &[]);
        assert_eq!(outcome.status, TxStatus::Reverted);
    }

    #[test]
    fn calldataload_reads_words_and_pads() {
        // Return the first calldata word.
        let source = "PUSH1 0x00\nCALLDATALOAD\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN";
        let mut calldata = vec![0u8; 32];
        calldata[31] = 9;
        assert_eq!(returned_u64(&run(source, &calldata)), 9);
        // Short calldata is zero-padded.
        assert_eq!(returned_u64(&run(source, &[])), 0);
    }

    #[test]
    fn sstore_and_sload_round_trip() {
        let source = r#"
            PUSH1 0x2a
            PUSH1 0x05
            SSTORE
            PUSH1 0x05
            SLOAD
            PUSH1 0x00
            MSTORE
            PUSH1 0x20
            PUSH1 0x00
            RETURN
        "#;
        assert_eq!(returned_u64(&run(source, &[])), 0x2a);
    }

    #[test]
    fn static_call_rejects_sstore() {
        let code = assemble("PUSH1 0x01\nPUSH1 0x00\nSSTORE\nSTOP").unwrap();
        let mut env = CallEnv::test_env(Address::ZERO, Address::ZERO, Bytes::new());
        env.is_static = true;
        let mut storage = MemStorage::new();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(outcome.status, TxStatus::Reverted);
    }

    #[test]
    fn static_call_rejects_log() {
        let code = assemble("PUSH1 0x00\nPUSH1 0x00\nLOG0\nSTOP").unwrap();
        let mut env = CallEnv::test_env(Address::ZERO, Address::ZERO, Bytes::new());
        env.is_static = true;
        let mut storage = MemStorage::new();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(outcome.status, TxStatus::Reverted);
    }

    #[test]
    fn logs_capture_topics_and_data() {
        let source = r#"
            PUSH1 0xaa
            PUSH1 0x00
            MSTORE8
            PUSH1 0x07     ; topic
            PUSH1 0x01     ; len
            PUSH1 0x00     ; offset
            LOG1
            STOP
        "#;
        let outcome = run(source, &[]);
        assert_eq!(outcome.status, TxStatus::Success);
        assert_eq!(outcome.logs.len(), 1);
        assert_eq!(outcome.logs[0].topics, vec![H256::from_low_u64(7)]);
        assert_eq!(outcome.logs[0].data.as_ref(), &[0xaa]);
    }

    #[test]
    fn sha3_hashes_memory() {
        // keccak256 of one zero byte.
        let source = "PUSH1 0x01\nPUSH1 0x00\nSHA3\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN";
        let outcome = run(source, &[]);
        assert_eq!(outcome.status, TxStatus::Success);
        assert_eq!(outcome.return_data.as_ref(), &keccak256(&[0u8])[..]);
    }

    #[test]
    fn revert_discards_logs_and_reports() {
        let source = r#"
            PUSH1 0x00
            PUSH1 0x00
            LOG0
            PUSH1 0x00
            PUSH1 0x00
            REVERT
        "#;
        let outcome = run(source, &[]);
        assert_eq!(outcome.status, TxStatus::Reverted);
        assert!(outcome.logs.is_empty());
    }

    #[test]
    fn out_of_gas_is_reported() {
        let code = assemble("begin:\nJUMPDEST\nPUSH @begin\nJUMP").unwrap();
        let env = CallEnv::test_env(Address::ZERO, Address::ZERO, Bytes::new());
        let mut storage = MemStorage::new();
        let outcome = execute(&code, &env, &mut storage, 1_000);
        assert_eq!(outcome.status, TxStatus::OutOfGas);
        assert_eq!(outcome.gas_used, 1_000);
    }

    #[test]
    fn stack_underflow_reverts() {
        let outcome = run("ADD", &[]);
        assert_eq!(outcome.status, TxStatus::Reverted);
    }

    #[test]
    fn dup_and_swap() {
        // Compute 5; dup it; swap with 9; stack top should be 5 again.
        let source = r#"
            PUSH1 0x05
            PUSH1 0x09
            DUP2        ; stack: 5 9 5
            SWAP1       ; stack: 5 5 9
            ADD         ; stack: 5 14
            ADD         ; stack: 19
            PUSH1 0x00
            MSTORE
            PUSH1 0x20
            PUSH1 0x00
            RETURN
        "#;
        assert_eq!(returned_u64(&run(source, &[])), 19);
    }

    #[test]
    fn caller_and_address_are_visible() {
        let source = "CALLER\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN";
        let outcome = run(source, &[]);
        assert_eq!(returned_u64(&outcome), 0xca11e4);
        let source = "ADDRESS\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN";
        let outcome = run(source, &[]);
        assert_eq!(returned_u64(&outcome), 0xc0de);
    }

    #[test]
    fn running_off_code_end_is_stop() {
        let outcome = run("PUSH1 0x01", &[]);
        assert_eq!(outcome.status, TxStatus::Success);
        assert!(outcome.return_data.is_empty());
    }

    #[test]
    fn invalid_opcode_reverts() {
        let env = CallEnv::test_env(Address::ZERO, Address::ZERO, Bytes::new());
        let mut storage = MemStorage::new();
        let outcome = execute(&[0xf1], &env, &mut storage, GAS); // CALL unsupported
        assert_eq!(outcome.status, TxStatus::Reverted);
    }

    #[test]
    fn stack_overflow_detected() {
        // Push in an infinite loop; must fail with overflow (reverted), not
        // hang — the gas meter would also stop it, but give it plenty.
        let code = assemble("begin:\nJUMPDEST\nPUSH1 0x01\nPUSH @begin\nJUMP").unwrap();
        let env = CallEnv::test_env(Address::ZERO, Address::ZERO, Bytes::new());
        let mut storage = MemStorage::new();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(outcome.status, TxStatus::Reverted);
    }

    /// Wraps an expression in "return top-of-stack as a word".
    fn returning(expr: &str) -> String {
        format!("{expr}\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN")
    }

    fn returned_word(outcome: &CallOutcome) -> U256 {
        assert_eq!(outcome.status, TxStatus::Success, "outcome: {outcome:?}");
        let mut word = [0u8; 32];
        word.copy_from_slice(&outcome.return_data);
        U256::from_be_bytes(word)
    }

    #[test]
    fn sdiv_truncates_toward_zero() {
        // -7 / 2 == -3: two's complement -7 is NOT(7) + 1; SDIV takes the
        // numerator from the top of the stack.
        let source = returning("PUSH1 0x02\nPUSH1 0x07\nNOT\nPUSH1 0x01\nADD\nSDIV");
        let outcome = run(&source, &[]);
        assert_eq!(returned_word(&outcome), U256::from(3u64).wrapping_neg());
    }

    #[test]
    fn smod_sign_follows_dividend() {
        // -7 % 2 == -1.
        let source = returning("PUSH1 0x02\nPUSH1 0x07\nNOT\nPUSH1 0x01\nADD\nSMOD");
        let outcome = run(&source, &[]);
        assert_eq!(returned_word(&outcome), U256::ONE.wrapping_neg());
    }

    #[test]
    fn slt_and_sgt_order_signed() {
        // -1 < 1 under SLT: PUSH 1 (rhs), PUSH -1 (lhs), SLT → 1.
        let source = returning("PUSH1 0x01\nPUSH1 0x00\nNOT\nSLT");
        assert_eq!(returned_word(&run(&source, &[])), U256::ONE);
        // 1 > -1 under SGT.
        let source = returning("PUSH1 0x00\nNOT\nPUSH1 0x01\nSGT");
        assert_eq!(returned_word(&run(&source, &[])), U256::ONE);
        // Unsigned LT disagrees: MAX (as -1) is the largest unsigned value.
        let source = returning("PUSH1 0x01\nPUSH1 0x00\nNOT\nLT");
        assert_eq!(returned_word(&run(&source, &[])), U256::ZERO);
    }

    #[test]
    fn sar_preserves_the_sign() {
        // (-8) SAR 1 == -4.
        let source = returning("PUSH1 0x07\nNOT\nPUSH1 0x01\nSAR");
        assert_eq!(returned_word(&run(&source, &[])), U256::from(4u64).wrapping_neg());
        // 8 SAR 1 == 4.
        let source = returning("PUSH1 0x08\nPUSH1 0x01\nSAR");
        assert_eq!(returned_word(&run(&source, &[])), U256::from(4u64));
    }

    #[test]
    fn signextend_widens_a_byte() {
        // SIGNEXTEND(0, 0xff) == -1.
        let source = returning("PUSH1 0xff\nPUSH1 0x00\nSIGNEXTEND");
        assert_eq!(returned_word(&run(&source, &[])), U256::MAX);
    }

    #[test]
    fn selfbalance_and_balance_read_accounts() {
        let code = assemble(&returning("SELFBALANCE")).unwrap();
        let env =
            CallEnv::test_env(Address::from_low_u64(0xca11e4), Address::from_low_u64(0xc0de), Bytes::new());
        let mut storage = MemStorage::new();
        storage.set_balance(Address::from_low_u64(0xc0de), U256::from(777u64));
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(returned_word(&outcome), U256::from(777u64));

        let code = assemble(&returning("PUSH3 0xca11e4\nBALANCE")).unwrap();
        storage.set_balance(Address::from_low_u64(0xca11e4), U256::from(123u64));
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(returned_word(&outcome), U256::from(123u64));
    }

    #[test]
    fn returndatasize_is_zero_before_any_call() {
        let source = returning("RETURNDATASIZE");
        assert_eq!(returned_word(&run(&source, &[])), U256::ZERO);
    }

    #[test]
    fn returndatacopy_out_of_bounds_is_an_error() {
        // No call has happened; copying one byte must fail hard.
        let outcome = run("PUSH1 0x01\nPUSH1 0x00\nPUSH1 0x00\nRETURNDATACOPY\nSTOP", &[]);
        assert_eq!(outcome.status, TxStatus::Reverted);
    }

    /// Sets up `storage` with a callee at 0xbb and returns the caller env.
    fn call_fixture(callee_asm: &str) -> (CallEnv, MemStorage) {
        let mut storage = MemStorage::new();
        let callee_code = assemble(callee_asm).expect("callee assembles");
        storage.set_code(Address::from_low_u64(0xbb), ContractCode::Bytecode(Bytes::from(callee_code)));
        let env = CallEnv::test_env(Address::from_low_u64(0xaa), Address::from_low_u64(0xcc), Bytes::new());
        (env, storage)
    }

    use crate::exec::ContractCode;

    #[test]
    fn call_runs_the_callee_and_copies_return_data() {
        // Callee returns the word 0x2a.
        let (env, mut storage) =
            call_fixture("PUSH1 0x2a\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN");
        // Caller: CALL(gas=50000, to=0xbb, value=0, in=[], out=mem[0..32]),
        // then return mem[0..32].
        let source = r#"
            PUSH1 0x20    ; out_len
            PUSH1 0x00    ; out_off
            PUSH1 0x00    ; in_len
            PUSH1 0x00    ; in_off
            PUSH1 0x00    ; value
            PUSH1 0xbb    ; to
            PUSH3 0xc350  ; gas
            CALL
            POP
            PUSH1 0x20
            PUSH1 0x00
            RETURN
        "#;
        let code = assemble(source).unwrap();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(returned_word(&outcome), U256::from(0x2au64));
    }

    #[test]
    fn call_pushes_success_flag_and_exposes_returndata() {
        let (env, mut storage) =
            call_fixture("PUSH1 0x2a\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN");
        // Return the success flag itself.
        let source = returning(
            "PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0xbb\nPUSH3 0xc350\nCALL",
        );
        let code = assemble(&source).unwrap();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(returned_word(&outcome), U256::ONE);

        // RETURNDATASIZE after the call sees the callee's 32-byte word.
        let source = returning(
            "PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0xbb\nPUSH3 0xc350\nCALL\nPOP\nRETURNDATASIZE",
        );
        let code = assemble(&source).unwrap();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(returned_word(&outcome), U256::from(32u64));
    }

    #[test]
    fn reverting_callee_rolls_back_its_writes_only() {
        // Callee stores 9 at its slot 0, then reverts.
        let (env, mut storage) =
            call_fixture("PUSH1 0x09\nPUSH1 0x00\nSSTORE\nPUSH1 0x00\nPUSH1 0x00\nREVERT");
        // Caller stores 5 at its own slot 0, calls, stores 6 at slot 1,
        // returns the call's success flag.
        let source = returning(
            "PUSH1 0x05\nPUSH1 0x00\nSSTORE\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0xbb\nPUSH3 0xc350\nCALL\nPUSH1 0x06\nPUSH1 0x01\nSSTORE",
        );
        let code = assemble(&source).unwrap();
        let outcome = execute(&code, &env, &mut storage, GAS);
        // Call failed (flag 0) but the parent frame completed.
        assert_eq!(returned_word(&outcome), U256::ZERO);
        // The callee's write was rolled back…
        assert_eq!(storage.storage_get(&Address::from_low_u64(0xbb), &H256::ZERO), H256::ZERO);
        // …while both parent writes survive.
        assert_eq!(storage.storage_get(&Address::from_low_u64(0xcc), &H256::ZERO), H256::from_low_u64(5));
        assert_eq!(
            storage.storage_get(&Address::from_low_u64(0xcc), &H256::from_low_u64(1)),
            H256::from_low_u64(6)
        );
    }

    #[test]
    fn revert_payload_reaches_the_caller() {
        // Callee reverts with the word 0xdead as payload.
        let (env, mut storage) =
            call_fixture("PUSH2 0xdead\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nREVERT");
        // Caller calls, then RETURNDATACOPYs the payload and returns it.
        let source = r#"
            PUSH1 0x00
            PUSH1 0x00
            PUSH1 0x00
            PUSH1 0x00
            PUSH1 0x00
            PUSH1 0xbb
            PUSH3 0xc350
            CALL
            POP
            PUSH1 0x20    ; len
            PUSH1 0x00    ; data_off
            PUSH1 0x00    ; mem_off
            RETURNDATACOPY
            PUSH1 0x20
            PUSH1 0x00
            RETURN
        "#;
        let code = assemble(source).unwrap();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(returned_word(&outcome), U256::from(0xdeadu64));
    }

    #[test]
    fn staticcall_denies_writes_in_the_callee() {
        let (env, mut storage) = call_fixture("PUSH1 0x01\nPUSH1 0x00\nSSTORE\nSTOP");
        let source =
            returning("PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0xbb\nPUSH3 0xc350\nSTATICCALL");
        let code = assemble(&source).unwrap();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(returned_word(&outcome), U256::ZERO, "write inside STATICCALL fails the child");
        assert_eq!(storage.storage_get(&Address::from_low_u64(0xbb), &H256::ZERO), H256::ZERO);
    }

    #[test]
    fn static_frame_cannot_call_with_value() {
        let (mut env, mut storage) = call_fixture("STOP");
        env.is_static = true;
        storage.set_balance(env.callee, U256::from(100u64));
        let source = "PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x01\nPUSH1 0xbb\nPUSH3 0xc350\nCALL\nSTOP";
        let code = assemble(source).unwrap();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(outcome.status, TxStatus::Reverted, "value transfer in static context");
    }

    #[test]
    fn call_transfers_value_to_codeless_account() {
        let mut storage = MemStorage::new();
        storage.set_balance(Address::from_low_u64(0xcc), U256::from(500u64));
        let env = CallEnv::test_env(Address::from_low_u64(0xaa), Address::from_low_u64(0xcc), Bytes::new());
        let source = returning(
            "PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH2 0x012c\nPUSH1 0xee\nPUSH3 0xc350\nCALL",
        );
        let code = assemble(&source).unwrap();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(returned_word(&outcome), U256::ONE);
        assert_eq!(storage.balance_get(&Address::from_low_u64(0xee)), U256::from(300u64));
        assert_eq!(storage.balance_get(&Address::from_low_u64(0xcc)), U256::from(200u64));
    }

    #[test]
    fn call_with_insufficient_balance_fails_flat() {
        let mut storage = MemStorage::new();
        storage.set_balance(Address::from_low_u64(0xcc), U256::from(10u64));
        let env = CallEnv::test_env(Address::from_low_u64(0xaa), Address::from_low_u64(0xcc), Bytes::new());
        let source = returning(
            "PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH2 0x012c\nPUSH1 0xee\nPUSH3 0xc350\nCALL",
        );
        let code = assemble(&source).unwrap();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(returned_word(&outcome), U256::ZERO, "no funds: flag 0, frame continues");
        assert_eq!(storage.balance_get(&Address::from_low_u64(0xcc)), U256::from(10u64));
        assert_eq!(storage.balance_get(&Address::from_low_u64(0xee)), U256::ZERO);
    }

    #[test]
    fn call_at_the_depth_limit_fails_flat() {
        let mut storage = MemStorage::new();
        storage.set_balance(Address::from_low_u64(0xcc), U256::from(500u64));
        let mut env =
            CallEnv::test_env(Address::from_low_u64(0xaa), Address::from_low_u64(0xcc), Bytes::new());
        env.depth = gas::CALL_DEPTH_LIMIT;
        let source = returning(
            "PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH2 0x012c\nPUSH1 0xee\nPUSH3 0xc350\nCALL",
        );
        let code = assemble(&source).unwrap();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(returned_word(&outcome), U256::ZERO, "too deep: flag 0, frame continues");
        assert_eq!(storage.balance_get(&Address::from_low_u64(0xcc)), U256::from(500u64));
        assert_eq!(storage.balance_get(&Address::from_low_u64(0xee)), U256::ZERO);
    }

    #[test]
    fn logs_of_a_successful_callee_bubble_up() {
        let (env, mut storage) = call_fixture("PUSH1 0x07\nPUSH1 0x00\nPUSH1 0x00\nLOG1\nSTOP");
        let source = "PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0xbb\nPUSH3 0xc350\nCALL\nPOP\nSTOP";
        let code = assemble(source).unwrap();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(outcome.status, TxStatus::Success);
        assert_eq!(outcome.logs.len(), 1);
        assert_eq!(outcome.logs[0].address, Address::from_low_u64(0xbb), "log attributed to callee");
        assert_eq!(outcome.logs[0].topics, vec![H256::from_low_u64(7)]);
    }

    #[test]
    fn logs_of_a_reverting_callee_are_dropped() {
        let (env, mut storage) =
            call_fixture("PUSH1 0x07\nPUSH1 0x00\nPUSH1 0x00\nLOG1\nPUSH1 0x00\nPUSH1 0x00\nREVERT");
        let source = "PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0xbb\nPUSH3 0xc350\nCALL\nPOP\nSTOP";
        let code = assemble(source).unwrap();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(outcome.status, TxStatus::Success);
        assert!(outcome.logs.is_empty());
    }

    #[test]
    fn nested_calls_recurse_to_the_depth_limit_without_overflowing() {
        // A contract that calls itself: CALL(gas=all, to=self, …), then
        // returns. Recursion must stop at the depth limit, not the stack.
        let mut storage = MemStorage::new();
        let this = Address::from_low_u64(0xbb);
        let source =
            "PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0xbb\nGAS\nCALL\nPOP\nSTOP";
        let code = assemble(source).unwrap();
        storage.set_code(this, ContractCode::Bytecode(Bytes::from(code.clone())));
        let mut env = CallEnv::test_env(Address::from_low_u64(0xaa), this, Bytes::new());
        env.depth = 0;
        // At 2M gas the 63/64 rule admits ~240 nested frames — far beyond
        // what native recursion could survive on a 2 MiB test-thread stack.
        // The iterative driver keeps suspended frames on the heap; the
        // deepest call dies of gas exhaustion and every parent unwinds.
        let outcome = execute(&code, &env, &mut storage, 2_000_000);
        assert_eq!(outcome.status, TxStatus::Success);
    }

    #[test]
    fn call_to_native_contract_dispatches() {
        use crate::exec::NativeContract;
        use crate::gas::GasMeter;

        /// Returns the constant 99.
        struct Const99;
        impl NativeContract for Const99 {
            fn name(&self) -> &'static str {
                "const99"
            }
            fn call(
                &self,
                _env: &CallEnv,
                _storage: &mut dyn Storage,
                _gas: &mut GasMeter,
                _logs: &mut Vec<Log>,
            ) -> Result<Bytes, VmError> {
                Ok(Bytes::copy_from_slice(&U256::from(99u64).to_be_bytes()))
            }
        }

        let mut storage = MemStorage::new();
        storage.set_code(Address::from_low_u64(0xbb), ContractCode::Native(std::sync::Arc::new(Const99)));
        let env = CallEnv::test_env(Address::from_low_u64(0xaa), Address::from_low_u64(0xcc), Bytes::new());
        let source = r#"
            PUSH1 0x20
            PUSH1 0x00
            PUSH1 0x00
            PUSH1 0x00
            PUSH1 0x00
            PUSH1 0xbb
            PUSH3 0xc350
            CALL
            POP
            PUSH1 0x20
            PUSH1 0x00
            RETURN
        "#;
        let code = assemble(source).unwrap();
        let outcome = execute(&code, &env, &mut storage, GAS);
        assert_eq!(returned_word(&outcome), U256::from(99u64));
    }
}
