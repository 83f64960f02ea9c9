//! A3: `jbc` interpreter throughput and the cost of security-checked
//! natives — the price of keeping mobile code interpreted (DESIGN.md
//! substitution for Java bytecode).
//!
//! A9: the same workloads on both engines in one binary — the seed
//! tree-walking loop (`difftest::Seed`, the executable specification) vs
//! the pre-decoded direct-threaded engine (`Interpreter::run`) — isolating
//! what pre-decoding, superinstruction fusion, and frame reuse buy.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jmp_vm::interp::difftest::Seed;
use jmp_vm::interp::{assemble, Interpreter, NativeHost, NoNatives, Value};

const SUM_LOOP: &str = r#"
    class Sum
    method main/1 locals=2
        push_int 0
        store 1
    loop:
        load 0
        push_int 0
        gt
        jump_if_false done
        load 1
        load 0
        add
        store 1
        load 0
        push_int 1
        sub
        store 0
        jump loop
    done:
        load 1
        return_value
"#;

const NATIVE_LOOP: &str = r#"
    class Pinger
    method main/1 locals=1
    loop:
        load 0
        push_int 0
        gt
        jump_if_false done
        push_int 1
        native ping/1
        pop
        load 0
        push_int 1
        sub
        store 0
        jump loop
    done:
        return
"#;

struct Ping;
impl NativeHost for Ping {
    fn invoke(&self, _name: &str, _args: Vec<Value>) -> jmp_vm::Result<Value> {
        Ok(Value::Int(1))
    }
}

fn bench_loop_throughput(c: &mut Criterion) {
    let image = Arc::new(assemble(SUM_LOOP).unwrap());
    let mut group = c.benchmark_group("A3/interpreted_sum_loop");
    for n in [100i64, 10_000] {
        let interpreter = Interpreter::new(Arc::clone(&image), Arc::new(NoNatives)).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| interpreter.run("main", vec![Value::Int(n)]).unwrap());
        });
    }
    group.finish();
}

fn bench_native_overhead(c: &mut Criterion) {
    let image = Arc::new(assemble(NATIVE_LOOP).unwrap());
    let interpreter = Interpreter::new(image, Arc::new(Ping)).unwrap();
    c.bench_function("A3/native_call_x1000", |b| {
        b.iter(|| interpreter.run("main", vec![Value::Int(1000)]).unwrap());
    });
}

const FIB: &str = r#"
    class Fib
    method main/1 locals=1
        load 0
        call fib/1
        return_value
    method fib/1 locals=1
        load 0
        push_int 2
        lt
        jump_if_false rec
        load 0
        return_value
    rec:
        load 0
        push_int 1
        sub
        call fib/1
        load 0
        push_int 2
        sub
        call fib/1
        add
        return_value
"#;

fn bench_seed_vs_predecoded(c: &mut Criterion) {
    for (group, source, n) in [
        ("A9/sum_loop_10k", SUM_LOOP, 10_000),
        ("A9/fib_16", FIB, 16),
    ] {
        let image = Arc::new(assemble(source).unwrap());
        let seed = Seed::new(Arc::clone(&image), Arc::new(NoNatives)).unwrap();
        let interpreter = Interpreter::new(image, Arc::new(NoNatives)).unwrap();
        let mut group = c.benchmark_group(group);
        group.bench_function("seed", |b| {
            b.iter(|| seed.run("main", vec![Value::Int(n)]).unwrap());
        });
        group.bench_function("predecoded", |b| {
            b.iter(|| interpreter.run("main", vec![Value::Int(n)]).unwrap());
        });
        group.finish();
    }
}

fn bench_predecode(c: &mut Criterion) {
    let image = Arc::new(assemble(SUM_LOOP).unwrap());
    c.bench_function("A9/predecode_image", |b| {
        b.iter(|| jmp_vm::interp::CompiledImage::compile(Arc::clone(&image)).unwrap());
    });
}

fn bench_verify(c: &mut Criterion) {
    let image = assemble(SUM_LOOP).unwrap();
    c.bench_function("A3/verify_image", |b| {
        b.iter(|| jmp_vm::interp::verify(&image).unwrap());
    });
}

criterion_group!(
    benches,
    bench_loop_throughput,
    bench_native_overhead,
    bench_seed_vs_predecoded,
    bench_predecode,
    bench_verify
);
criterion_main!(benches);
