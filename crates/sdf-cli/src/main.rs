//! The `sdfmem` command-line tool; all logic lives in the library.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match sdf_cli::parse_args(&args).and_then(|cmd| sdf_cli::execute(&cmd)) {
        Ok((output, code)) => {
            print!("{output}");
            std::process::exit(code);
        }
        Err(message) => {
            eprintln!("error: {message}\n");
            eprint!("{}", sdf_cli::usage());
            std::process::exit(2);
        }
    }
}
