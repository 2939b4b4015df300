from polydc.cli import main

raise SystemExit(main())
