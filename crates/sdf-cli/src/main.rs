//! The `sdfmem` command-line tool; all logic lives in the library.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match sdf_cli::parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}\n");
            eprint!("{}", sdf_cli::usage());
            std::process::exit(2);
        }
    };
    match sdf_cli::execute(&command) {
        Ok((output, code)) => {
            print!("{output}");
            std::process::exit(code);
        }
        Err(failure) => {
            eprintln!("error: {}", failure.message);
            std::process::exit(failure.code);
        }
    }
}
