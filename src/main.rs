#![forbid(unsafe_code)]

fn main() {
    println!("aquila-suite");
}
