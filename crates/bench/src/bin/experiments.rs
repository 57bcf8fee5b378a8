//! Regenerates every experiment table of EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p tc-bench --release --bin experiments            # full sweep
//! cargo run -p tc-bench --release --bin experiments -- --smoke # tiny sweep
//! cargo run -p tc-bench --release --bin experiments -- --markdown
//! cargo run -p tc-bench --release --bin experiments -- --json results.json
//! ```
//!
//! Any other argument, or `--json` without a path, prints the usage line
//! and exits with status 2.

use std::io::Write;
use tc_bench::experiments::{all_experiments, Scale};

const USAGE: &str = "usage: experiments [--smoke] [--markdown] [--json <path>]";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Options {
    scale: Scale,
    markdown: bool,
    json_path: Option<String>,
}

/// Parses the arguments after the program name. Unknown arguments and a
/// `--json` without a path are errors, so a typo cannot silently run the
/// full sweep with different options than the ones asked for.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        scale: Scale::Paper,
        markdown: false,
        json_path: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => options.scale = Scale::Smoke,
            "--markdown" => options.markdown = true,
            "--json" => match args.next() {
                Some(path) if !path.starts_with("--") => options.json_path = Some(path.clone()),
                _ => return Err("--json needs a path".to_string()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("error: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(err) = run(options) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
}

fn run(options: Options) -> Result<(), Box<dyn std::error::Error>> {
    let Options {
        scale,
        markdown,
        json_path,
    } = options;
    eprintln!("running experiment suite at {scale:?} scale...");
    let tables = all_experiments(scale)?;

    for table in &tables {
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            println!("{}", table.to_plain_text());
        }
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&tables)?;
        let mut file = std::fs::File::create(&path)?;
        file.write_all(json.as_bytes())?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn known_flags_parse() {
        assert_eq!(
            parse(&["--markdown", "--json", "out.json", "--smoke"]),
            Ok(Options {
                scale: Scale::Smoke,
                markdown: true,
                json_path: Some("out.json".to_string()),
            })
        );
        assert_eq!(
            parse(&[]),
            Ok(Options {
                scale: Scale::Paper,
                markdown: false,
                json_path: None,
            })
        );
    }

    #[test]
    fn unknown_flags_and_a_bare_json_are_rejected() {
        assert!(parse(&["--smok"]).unwrap_err().contains("--smok"));
        assert!(parse(&["results.json"]).is_err());
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--json", "--smoke"]).is_err());
    }
}
