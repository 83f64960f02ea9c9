//! The applets the two applet workloads download: a fixed GUI catalogue,
//! per-user hostile GUI applets, and four compute kernels. All are `jbc`
//! assembly published on the runtime's simulated network.

use jmp_core::MpRuntime;

use crate::sys::Rng;
use crate::world::{COMPUTE_HOST, EVIL_HOST, GUI_HOST, TMP_FILE};

/// Contents of [`TMP_FILE`], read by the checked-native kernel.
pub const TMP_TEXT: &str = "jmpbench shared scratch data\n";

/// Benign GUI applets in the catalogue.
const GUI_CATALOGUE: usize = 30;

/// A benign GUI applet: `buttons` buttons sharing one callback whose loop
/// runs `loop_n` times, so callbacks range from tens to thousands of
/// instructions.
#[derive(Clone, Debug)]
pub struct GuiApplet {
    pub url: String,
    pub buttons: usize,
    pub loop_n: i64,
}

impl GuiApplet {
    /// What the callback prints for a click on component `comp`.
    pub fn click_line(&self, comp: u64) -> String {
        let n = self.loop_n;
        format!("click {comp} {}", n * (n + 1) / 2 + n * comp as i64)
    }
}

/// `main` opens a window, adds `buttons` buttons wired to `on_click`, and
/// prints `ready <window> <component>...`.
fn gui_source(class: &str, buttons: usize, callback: &str) -> String {
    let mut src = format!(
        "class {class}\n\
         method main/0 locals=3\n\
         push_str \"{class}\"\n\
         native create_window/1\n\
         store 0\n\
         push_str \"ready \"\n\
         load 0\n\
         concat\n\
         store 2\n"
    );
    for b in 0..buttons {
        src.push_str(&format!(
            "load 0\n\
             push_str \"button {b}\"\n\
             native add_button/2\n\
             store 1\n\
             load 0\n\
             load 1\n\
             push_str \"on_click\"\n\
             native on_action/3\n\
             pop\n\
             load 2\n\
             push_str \" \"\n\
             concat\n\
             load 1\n\
             concat\n\
             store 2\n"
        ));
    }
    src.push_str("load 2\nnative println/1\npop\nreturn\n");
    src.push_str(callback);
    src
}

/// Benign callback: sums `k + comp` for `k = loop_n..1`, then prints
/// `click <comp> <sum>`.
fn counting_callback(loop_n: i64) -> String {
    format!(
        "method on_click/1 locals=3\n\
         push_int 0\n\
         store 1\n\
         push_int {loop_n}\n\
         store 2\n\
         loop:\n\
         load 2\n\
         push_int 0\n\
         gt\n\
         jump_if_false done\n\
         load 1\n\
         load 2\n\
         add\n\
         load 0\n\
         add\n\
         store 1\n\
         load 2\n\
         push_int 1\n\
         sub\n\
         store 2\n\
         jump loop\n\
         done:\n\
         push_str \"click \"\n\
         load 0\n\
         concat\n\
         push_str \" \"\n\
         concat\n\
         load 1\n\
         concat\n\
         native println/1\n\
         pop\n\
         return\n"
    )
}

/// Publishes the fixed GUI catalogue: one to six buttons and callback loops
/// of 2 to 1,024 iterations, crossed so every size meets every layout. The
/// seed picks applets and clicks from it; the catalogue itself is the same
/// for every seed.
pub fn publish_gui_catalogue(rt: &MpRuntime) -> Vec<GuiApplet> {
    (0..GUI_CATALOGUE)
        .map(|i| {
            let applet = GuiApplet {
                url: format!("http://{GUI_HOST}/gui{i}.jbc"),
                buttons: 1 + i % 6,
                loop_n: 2i64 << (i % 10),
            };
            let source = gui_source(
                &format!("Gui{i}"),
                applet.buttons,
                &counting_callback(applet.loop_n),
            );
            jmp_shell::publish_applet(rt, GUI_HOST, &format!("/gui{i}.jbc"), &source)
                .expect("publish GUI applet");
            applet
        })
        .collect()
}

/// URL of the hostile applet aimed at `user`: its callback tries to read the
/// user's notes, which the applet sandbox must refuse.
pub fn hostile_url(user: &str) -> String {
    format!("http://{EVIL_HOST}/steal-{user}.jbc")
}

pub fn publish_hostile(rt: &MpRuntime, user: &str) {
    let callback = format!(
        "method on_click/1 locals=1\n\
         push_str \"{}\"\n\
         native read_file/1\n\
         native println/1\n\
         pop\n\
         return\n",
        crate::world::notes_path(user)
    );
    let source = gui_source("Steal", 1, &callback);
    jmp_shell::publish_applet(rt, EVIL_HOST, &format!("/steal-{user}.jbc"), &source)
        .expect("publish hostile applet");
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// The E18 arithmetic loop (13 wire instructions per iteration).
    Sum,
    /// Recursive Fibonacci: call- and frame-heavy.
    Fib,
    /// String building: allocation-bound.
    Str,
    /// A loop of checked natives: connect-to-origin, a `/tmp` read granted
    /// by code source, and a property read.
    Natives,
}

pub const KERNELS: [Kernel; 4] = [Kernel::Sum, Kernel::Fib, Kernel::Str, Kernel::Natives];

impl Kernel {
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Sum => "sum",
            Kernel::Fib => "fib",
            Kernel::Str => "str",
            Kernel::Natives => "natives",
        }
    }

    pub fn url(self) -> String {
        format!("http://{COMPUTE_HOST}/{}.jbc", self.name())
    }

    /// Seeded size. Every kernel spans about the same 5–10 ms of
    /// interpretation on a 2-client run, so interpretation is over 90% of
    /// an operation and the kernels' latencies overlap instead of forming
    /// separate clusters.
    pub fn size(self, rng: &mut Rng) -> i64 {
        (match self {
            Kernel::Sum => rng.range(180_000, 360_000),
            Kernel::Fib => rng.range(16, 17),
            Kernel::Str => rng.range(7_000, 10_000),
            Kernel::Natives => rng.range(800, 1_600),
        }) as i64
    }

    /// The value `main` returns for size `n`.
    pub fn expected(self, n: i64) -> i64 {
        match self {
            Kernel::Sum => n * (n + 1) / 2,
            Kernel::Fib => {
                let (mut a, mut b) = (0i64, 1i64);
                for _ in 0..n {
                    (a, b) = (b, a + b);
                }
                a
            }
            Kernel::Str => 2 * n,
            Kernel::Natives => n * TMP_TEXT.chars().count() as i64,
        }
    }

    fn source(self) -> String {
        let body = match self {
            Kernel::Sum => "\
                push_int 0\nstore 1\n\
                loop:\n\
                load 0\npush_int 0\ngt\njump_if_false done\n\
                load 1\nload 0\nadd\nstore 1\n\
                load 0\npush_int 1\nsub\nstore 0\n\
                jump loop\n\
                done:\nload 1\nreturn_value\n"
                .to_string(),
            Kernel::Fib => "\
                load 0\ncall fib/1\nreturn_value\n\
                method fib/1 locals=1\n\
                load 0\npush_int 2\nlt\njump_if_false rec\nload 0\nreturn_value\n\
                rec:\n\
                load 0\npush_int 1\nsub\ncall fib/1\n\
                load 0\npush_int 2\nsub\ncall fib/1\n\
                add\nreturn_value\n"
                .to_string(),
            Kernel::Str => "\
                push_str \"\"\nstore 1\n\
                loop:\n\
                load 0\npush_int 0\ngt\njump_if_false done\n\
                load 1\npush_str \"ab\"\nconcat\nstore 1\n\
                load 0\npush_int 1\nsub\nstore 0\n\
                jump loop\n\
                done:\nload 1\nnative str_len/1\nreturn_value\n"
                .to_string(),
            Kernel::Natives => format!(
                "push_int 0\nstore 1\n\
                 loop:\n\
                 load 0\npush_int 0\ngt\njump_if_false done\n\
                 push_str \"{COMPUTE_HOST}\"\nnative connect/1\npop\n\
                 push_str \"{TMP_FILE}\"\nnative read_file/1\nnative str_len/1\n\
                 load 1\nadd\nstore 1\n\
                 push_str \"java.version\"\nnative get_property/1\npop\n\
                 load 0\npush_int 1\nsub\nstore 0\n\
                 jump loop\n\
                 done:\nload 1\nreturn_value\n"
            ),
        };
        // The viewer passes applet arguments as strings.
        format!(
            "class K{}\nmethod main/1 locals=2\nload 0\nnative parse_int/1\nstore 0\n{body}",
            self.name()
        )
    }
}

pub fn publish_kernels(rt: &MpRuntime) {
    for kernel in KERNELS {
        jmp_shell::publish_applet(
            rt,
            COMPUTE_HOST,
            &format!("/{}.jbc", kernel.name()),
            &kernel.source(),
        )
        .expect("publish kernel");
    }
}
