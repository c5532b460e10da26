//! Kernel declarations: a kernel's name, typed arguments, cost and body in
//! one place.
//!
//! OpenCL binds arguments by position (`clSetKernelArg(k, 3, …)`) and a
//! kernel reads them by the same positions, so a kernel's signature is
//! restated by every caller. [`kernel!`](crate::kernel!) states it once: it
//! implements [`KernelBody`](crate::KernelBody) for a type from a body whose
//! parameters are the kernel's named, typed arguments, and generates a
//! binder struct with one field per argument whose `bind` makes the
//! `set_arg` calls. Arity, positions and read/write mode then exist only in
//! the declaration. The compiler checks a binder's fields against its own
//! declaration, not which kernel the binder is applied to: `bind` refuses a
//! kernel whose arity differs, and a kernel of another declaration with the
//! same arity fails at launch only where an argument's kind differs.
//!
//! ```
//! use clrt::{In, KernelCostSpec, Out};
//!
//! /// `y += a·x`.
//! struct Saxpy;
//! clrt::kernel! {
//!     impl Saxpy as SaxpyArgs {
//!         name: "saxpy",
//!         cost: KernelCostSpec::memory_bound(24.0),
//!         fn execute(&self, ctx, a: f64, x: In<f64>, y: Out<f64>) {
//!             for (y, x) in y.iter_mut().zip(x).take(ctx.nd().global_items() as usize) {
//!                 *y += a * x;
//!             }
//!         }
//!     }
//! }
//!
//! # fn main() -> clrt::ClResult<()> {
//! # let platform = clrt::Platform::paper_node();
//! # let ctx = platform.create_context_all()?;
//! # let program = ctx.create_program(vec![std::sync::Arc::new(Saxpy)])?;
//! # program.build(0)?;
//! # let (x, y) = (ctx.create_buffer_of::<f64>(8)?, ctx.create_buffer_of::<f64>(8)?);
//! let kernel = program.create_kernel("saxpy")?;
//! SaxpyArgs { a: 3.0, x: &x, y: &y }.bind(&kernel)?;
//! # Ok(())
//! # }
//! ```

use crate::buffer::{Buffer, Element};
use crate::kernel::{ArgValue, KernelCtx};
use std::marker::PhantomData;

/// The type of one declared kernel argument: how a body receives it and how
/// a binder passes it to [`Kernel::set_arg`](crate::Kernel::set_arg).
pub trait Param {
    /// What the body receives.
    type Value<'c>;
    /// What the binder takes.
    type Bind<'a>: Copy;
    /// Argument `idx` of the launch running in `ctx`.
    fn read<'c>(ctx: &'c KernelCtx<'_>, idx: usize) -> Self::Value<'c>;
    /// The argument value that binds `value`.
    fn arg(value: Self::Bind<'_>) -> ArgValue;
}

/// A buffer of `T` the kernel only reads: the body gets `&[T]`, the binder
/// binds [`ArgValue::Buffer`].
pub struct In<T>(PhantomData<T>);

/// A buffer of `T` the kernel may write: the body gets `&mut [T]`, the
/// binder binds [`ArgValue::BufferMut`].
pub struct Out<T>(PhantomData<T>);

impl<T: Element> Param for In<T> {
    type Value<'c> = &'c [T];
    type Bind<'a> = &'a Buffer;
    fn read<'c>(ctx: &'c KernelCtx<'_>, idx: usize) -> &'c [T] {
        ctx.slice(idx)
    }
    fn arg(value: &Buffer) -> ArgValue {
        ArgValue::Buffer(value.clone())
    }
}

impl<T: Element> Param for Out<T> {
    type Value<'c> = &'c mut [T];
    type Bind<'a> = &'a Buffer;
    fn read<'c>(ctx: &'c KernelCtx<'_>, idx: usize) -> &'c mut [T] {
        ctx.slice_mut(idx)
    }
    fn arg(value: &Buffer) -> ArgValue {
        ArgValue::BufferMut(value.clone())
    }
}

impl Param for u64 {
    type Value<'c> = u64;
    type Bind<'a> = u64;
    fn read(ctx: &KernelCtx<'_>, idx: usize) -> u64 {
        ctx.u64(idx)
    }
    fn arg(value: u64) -> ArgValue {
        ArgValue::U64(value)
    }
}

impl Param for f64 {
    type Value<'c> = f64;
    type Bind<'a> = f64;
    fn read(ctx: &KernelCtx<'_>, idx: usize) -> f64 {
        ctx.f64(idx)
    }
    fn arg(value: f64) -> ArgValue {
        ArgValue::F64(value)
    }
}

/// The position of the next argument: `slot`, which then moves on.
#[doc(hidden)]
pub fn next_slot(slot: &mut usize) -> usize {
    *slot += 1;
    *slot - 1
}

/// Declare a kernel: implement [`KernelBody`](crate::KernelBody) for an
/// existing type and generate the binder of its arguments.
///
/// ```text
/// clrt::kernel! {
///     impl Type as Binder {                 // or impl<S: Bound> Type<S> as …
///         name: <&str expression>,
///         cost: <KernelCostSpec expression>,
///         splittable: <bool expression>,    // optional, default false
///         fn execute(&self, ctx, a: In<f64>, b: Out<u32>, n: u64, t: f64) { … }
///     }
/// }
/// ```
///
/// The expressions and the body may use `self`. In the body each argument
/// is bound to its value (`In<T>` as `&[T]`, `Out<T>` as `&mut [T]`,
/// scalars by value), and `ctx` is the launch's
/// [`KernelCtx`](crate::KernelCtx) for its geometry. The binder is a struct
/// with one field per argument, a `&Buffer` for a buffer; its `bind` sets
/// every argument of a kernel created from the declaration. A binder may
/// take a visibility: `impl Type as pub(crate) Binder`.
#[macro_export]
macro_rules! kernel {
    (impl < $($g:ident : $bound:path),+ > $($rest:tt)*) => {
        $crate::kernel!(@decl [$($g: $bound),+] $($rest)*);
    };
    (impl $($rest:tt)*) => {
        $crate::kernel!(@decl [] $($rest)*);
    };
    (@decl [$($gen:tt)*] $ty:ty as $vis:vis $binder:ident {
        name: $name:expr,
        cost: $cost:expr,
        $(splittable: $split:expr,)?
        fn execute(&$this:ident, $ctx:ident $(, $arg:ident: $kind:ty)+ $(,)?) $body:block
    }) => {
        impl<$($gen)*> $crate::KernelBody for $ty {
            fn name(&$this) -> &str {
                $name
            }
            fn arity(&$this) -> usize {
                [$(stringify!($arg)),+].len()
            }
            fn cost(&$this) -> $crate::KernelCostSpec {
                $cost
            }
            $(fn splittable(&$this) -> bool {
                $split
            })?
            fn execute(&$this, $ctx: &mut $crate::KernelCtx<'_>) {
                let mut slot = 0;
                $(let $arg =
                    <$kind as $crate::Param>::read($ctx, $crate::declare::next_slot(&mut slot));)+
                $body
            }
        }

        #[doc = concat!("The arguments of kernel type `", stringify!($ty), "`, by name.")]
        $vis struct $binder<'a> {
            $($vis $arg: <$kind as $crate::Param>::Bind<'a>,)+
        }

        impl $binder<'_> {
            /// Bind every argument of `kernel`, one `set_arg` per position;
            /// `InvalidKernelArgs`, binding nothing, if `kernel` does not take
            /// as many arguments as the declaration.
            $vis fn bind(&self, kernel: &$crate::Kernel) -> $crate::ClResult<()> {
                let declared = [$(stringify!($arg)),+].len();
                if kernel.arity() != declared {
                    return Err($crate::ClError::InvalidKernelArgs(format!(
                        "kernel `{}` takes {} args, `{}` binds {declared}",
                        kernel.name(),
                        kernel.arity(),
                        stringify!($binder),
                    )));
                }
                let mut slot = 0;
                $(kernel.set_arg(
                    $crate::declare::next_slot(&mut slot),
                    <$kind as $crate::Param>::arg(self.$arg),
                )?;)+
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::error::ClError;
    use crate::{Buffer, In, Kernel, KernelBody, KernelCostSpec, Out};
    use std::sync::Arc;

    /// `y = a·x + b` over the first `n` items, with every kind of argument.
    struct Axpb {
        name: &'static str,
    }
    crate::kernel! {
        impl Axpb as AxpbArgs {
            name: self.name,
            cost: KernelCostSpec::memory_bound(24.0),
            splittable: true,
            fn execute(&self, ctx, x: In<f64>, a: f64, y: Out<f64>, n: u64, b: f64) {
                assert_eq!(ctx.global_offset(), [0, 0, 0]);
                for i in 0..n as usize {
                    y[i] = a * x[i] + b;
                }
            }
        }
    }

    fn kernel() -> Kernel {
        Kernel::new(1, Arc::new(Axpb { name: "axpb" }))
    }

    #[test]
    fn a_declaration_states_its_arity_and_body_traits() {
        let body = Axpb { name: "axpb" };
        assert_eq!((body.name(), body.arity(), body.splittable()), ("axpb", 5, true));
        let k = kernel();
        assert!(k.splittable() && k.name() == "axpb");
    }

    #[test]
    fn bind_fills_every_slot_in_declaration_order() {
        let (x, y) = (Buffer::new(1, 32).unwrap(), Buffer::new(1, 32).unwrap());
        let k = kernel();
        // Unbound, the kernel cannot launch.
        assert!(matches!(k.snapshot_args(), Err(ClError::InvalidKernelArgs(_))));
        AxpbArgs { x: &x, a: 2.0, y: &y, n: 4, b: 0.5 }.bind(&k).unwrap();
        let args = k.snapshot_args().unwrap();
        assert_eq!(args.len(), 5);
        assert!(
            args[0].buffer().is_some_and(|b| b.same_object(&x)) && !args[0].is_mutable_buffer()
        );
        assert!(args[2].buffer().is_some_and(|b| b.same_object(&y)) && args[2].is_mutable_buffer());
        let scalars = [&args[1], &args[3], &args[4]].map(|a| format!("{a:?}"));
        assert_eq!(scalars, ["F64(2.0)", "U64(4)", "F64(0.5)"]);
    }

    /// `x` doubled in place: one argument, so not an `Axpb`.
    struct Double;
    crate::kernel! {
        impl Double as DoubleArgs {
            name: "double",
            cost: KernelCostSpec::memory_bound(16.0),
            fn execute(&self, _ctx, x: Out<f64>) {
                x.iter_mut().for_each(|v| *v *= 2.0);
            }
        }
    }

    #[test]
    fn a_binder_refuses_a_kernel_of_another_arity_and_binds_nothing() {
        let (x, y) = (Buffer::new(1, 32).unwrap(), Buffer::new(1, 32).unwrap());
        let k = kernel();
        AxpbArgs { x: &x, a: 2.0, y: &y, n: 4, b: 0.5 }.bind(&k).unwrap();
        let err = DoubleArgs { x: &y }.bind(&k).unwrap_err();
        assert!(matches!(err, ClError::InvalidKernelArgs(_)), "{err:?}");
        // Argument 0 is still the read-only `x`.
        let args = k.snapshot_args().unwrap();
        assert!(
            args[0].buffer().is_some_and(|b| b.same_object(&x)) && !args[0].is_mutable_buffer()
        );
        let double = Kernel::new(1, Arc::new(Double));
        let err = AxpbArgs { x: &x, a: 2.0, y: &y, n: 4, b: 0.5 }.bind(&double).unwrap_err();
        assert!(matches!(err, ClError::InvalidKernelArgs(_)), "{err:?}");
        assert!(matches!(double.snapshot_args(), Err(ClError::InvalidKernelArgs(_))));
    }

    #[test]
    fn in_arguments_are_reads_and_out_arguments_writes() {
        let (x, y) = (Buffer::new(1, 32).unwrap(), Buffer::new(1, 32).unwrap());
        let k = kernel();
        AxpbArgs { x: &x, a: 2.0, y: &y, n: 4, b: 0.5 }.bind(&k).unwrap();
        let touched: Vec<(u64, bool)> =
            k.snapshot_args().unwrap().touched().iter().map(|t| (t.buf.id(), t.write)).collect();
        assert_eq!(touched, [(x.id(), false), (y.id(), true)]);
    }

    #[test]
    fn the_generated_body_reads_the_bound_arguments() {
        let platform = crate::Platform::paper_node();
        let ctx = platform.create_context_all().unwrap();
        let queue = ctx.create_queue(platform.node().cpu().unwrap()).unwrap();
        let program = ctx.create_program(vec![Arc::new(Axpb { name: "axpb" })]).unwrap();
        program.build(0).unwrap();
        let k = program.create_kernel("axpb").unwrap();
        let (x, y) =
            (ctx.create_buffer_of::<f64>(4).unwrap(), ctx.create_buffer_of::<f64>(4).unwrap());
        queue.enqueue_write(&x, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        AxpbArgs { x: &x, a: 2.0, y: &y, n: 3, b: 0.5 }.bind(&k).unwrap();
        queue.enqueue_ndrange(&k, crate::NdRange::d1(4, 1), &[]).unwrap();
        queue.finish();
        assert_eq!(y.host_snapshot::<f64>(), [2.5, 4.5, 6.5, 0.0]);
    }
}
